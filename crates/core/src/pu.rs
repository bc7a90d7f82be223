//! The primary-user (TV receiver) client.

use crate::config::SystemConfig;
use crate::messages::PuUpdateMsg;
use pisa_crypto::paillier::PaillierPublicKey;
use pisa_radio::tv::Channel;
use pisa_radio::BlockId;
use pisa_watch::{IntMatrix, PuInput};
use rand::Rng;

/// A TV receiver participating in PISA.
///
/// The PU's block is public (TV receiver locations are fixed and
/// registered, §III-D); the *tuned channel* is the private datum. Every
/// channel change produces an encrypted update of `C` ciphertexts
/// (paper Figure 4) — one per channel, so the SDC cannot tell which
/// entry is live.
#[derive(Debug)]
pub struct PuClient {
    id: u64,
    block: BlockId,
    tuned: Option<Channel>,
}

impl PuClient {
    /// A PU registered at `block`, initially off.
    pub fn new(id: u64, block: BlockId) -> Self {
        PuClient {
            id,
            block,
            tuned: None,
        }
    }

    /// This PU's registration id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The (public) block.
    pub fn block(&self) -> BlockId {
        self.block
    }

    /// The (private) tuned channel.
    pub fn tuned(&self) -> Option<Channel> {
        self.tuned
    }

    /// Tunes to `channel` (or off) and builds the encrypted update for
    /// the SDC: `W̃(k, i) = Enc(T(k,i) − E(k,i))` for the tuned entry,
    /// `Enc(0)` for every other channel (eq. 9's comparison-free
    /// encoding).
    ///
    /// All `C` entries are freshly encrypted — an eavesdropper (or the
    /// SDC) sees `C` indistinguishable ciphertexts.
    pub fn tune<R: Rng + ?Sized>(
        &mut self,
        channel: Option<Channel>,
        cfg: &SystemConfig,
        e: &IntMatrix,
        pk_g: &PaillierPublicKey,
        rng: &mut R,
    ) -> PuUpdateMsg {
        self.tuned = channel;
        let input = match channel {
            Some(c) => PuInput::tuned(cfg.watch(), self.block, c),
            None => PuInput::off(self.block),
        };
        let w_column = input.w_column(cfg.watch(), e);
        PuUpdateMsg {
            block: self.block,
            w_column: crate::cipher_matrix::encrypt_all(pk_g, &w_column, rng),
            ct_bytes: pk_g.ciphertext_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pisa_watch::compute_e_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (
        SystemConfig,
        IntMatrix,
        pisa_crypto::paillier::PaillierKeyPair,
    ) {
        let cfg = SystemConfig::small_test();
        let e = compute_e_matrix(cfg.watch());
        let mut rng = StdRng::seed_from_u64(1);
        let kp = pisa_crypto::paillier::PaillierKeyPair::generate(&mut rng, 256);
        (cfg, e, kp)
    }

    #[test]
    fn update_has_one_ciphertext_per_channel() {
        let (cfg, e, kp) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        let mut pu = PuClient::new(0, BlockId(3));
        let msg = pu.tune(Some(Channel(1)), &cfg, &e, kp.public(), &mut rng);
        assert_eq!(msg.w_column.len(), cfg.channels());
        assert_eq!(pu.tuned(), Some(Channel(1)));
    }

    #[test]
    fn update_decrypts_to_w_column() {
        let (cfg, e, kp) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut pu = PuClient::new(0, BlockId(3));
        let msg = pu.tune(Some(Channel(2)), &cfg, &e, kp.public(), &mut rng);
        let expected =
            PuInput::tuned(cfg.watch(), BlockId(3), Channel(2)).w_column(cfg.watch(), &e);
        for (ct, want) in msg.w_column.iter().zip(expected) {
            let got = crate::cipher_matrix::ibig_to_i128(&kp.secret().decrypt(ct));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn off_update_is_all_zeros() {
        let (cfg, e, kp) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let mut pu = PuClient::new(0, BlockId(3));
        pu.tune(Some(Channel(1)), &cfg, &e, kp.public(), &mut rng);
        let msg = pu.tune(None, &cfg, &e, kp.public(), &mut rng);
        for ct in &msg.w_column {
            assert!(kp.secret().decrypt(ct).is_zero());
        }
        assert_eq!(pu.tuned(), None);
    }

    #[test]
    fn ciphertexts_are_indistinguishable_fresh() {
        // Two consecutive identical tunes produce different ciphertexts.
        let (cfg, e, kp) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let mut pu = PuClient::new(0, BlockId(3));
        let a = pu.tune(Some(Channel(1)), &cfg, &e, kp.public(), &mut rng);
        let b = pu.tune(Some(Channel(1)), &cfg, &e, kp.public(), &mut rng);
        for (x, y) in a.w_column.iter().zip(&b.w_column) {
            assert_ne!(x, y);
        }
    }
}
