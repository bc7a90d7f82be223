//! Offline stand-in for `crossbeam`: an unbounded MPMC channel with the
//! same surface the PISA transport uses (`send`, `recv`, `try_recv`,
//! `recv_timeout`, cloneable senders *and* receivers, disconnect
//! detection by live-handle counts).

/// Multi-producer multi-consumer FIFO channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        ready: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    /// Creates an unbounded FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
                receivers: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// The sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; cloneable (messages go to exactly one receiver).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Send failed: every receiver is gone. Carries the unsent message.
    pub struct SendError<T>(pub T);

    impl<T> SendError<T> {
        /// Recovers the message that could not be sent.
        pub fn into_inner(self) -> T {
            self.0
        }
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("sending on a disconnected channel")
        }
    }

    /// Receive failed: channel is empty and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Non-blocking receive outcome when no message was returned.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Empty and every sender is gone.
        Disconnected,
    }

    /// Bounded-wait receive outcome when no message was returned.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived before the deadline.
        Timeout,
        /// Empty and every sender is gone.
        Disconnected,
    }

    impl<T> Sender<T> {
        /// Enqueues a message, failing if all receivers are dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.queue.lock().unwrap();
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.items.push_back(value);
            drop(state);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let remaining = {
                let mut state = self.shared.queue.lock().unwrap();
                state.senders -= 1;
                state.senders
            };
            if remaining == 0 {
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders are dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.queue.lock().unwrap();
            loop {
                if let Some(item) = state.items.pop_front() {
                    return Ok(item);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.ready.wait(state).unwrap();
            }
        }

        /// Pops a queued message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.queue.lock().unwrap();
            match state.items.pop_front() {
                Some(item) => Ok(item),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks up to `timeout` for a message. A timeout too long
        /// for an [`Instant`] to represent waits without bound, as in
        /// crossbeam-channel.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let Some(deadline) = Instant::now().checked_add(timeout) else {
                return self
                    .recv()
                    .map_err(|RecvError| RecvTimeoutError::Disconnected);
            };
            let mut state = self.shared.queue.lock().unwrap();
            loop {
                if let Some(item) = state.items.pop_front() {
                    return Ok(item);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .shared
                    .ready
                    .wait_timeout(state, deadline - now)
                    .unwrap();
                state = guard;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.queue.lock().unwrap().receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn fifo_order() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        for i in 0..5 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn timeout_then_delivery() {
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(7u8).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(100)), Ok(7));
    }

    /// A deadline past what `Instant` can hold waits like `recv`
    /// instead of overflowing.
    #[test]
    fn unrepresentable_timeout_waits_without_bound() {
        let (tx, rx) = unbounded();
        tx.send(3u8).unwrap();
        assert_eq!(rx.recv_timeout(Duration::MAX), Ok(3));
        let handle = std::thread::spawn(move || tx.send(4u8).unwrap());
        assert_eq!(rx.recv_timeout(Duration::MAX), Ok(4));
        handle.join().unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::MAX),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn disconnect_detection() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));
        let (tx2, rx2) = unbounded();
        drop(rx2);
        assert_eq!(tx2.send(1u8).unwrap_err().into_inner(), 1);
    }

    #[test]
    fn cross_thread() {
        let (tx, rx) = unbounded();
        let handle = std::thread::spawn(move || tx.send(42u8).unwrap());
        assert_eq!(rx.recv().unwrap(), 42);
        handle.join().unwrap();
    }

    /// Messages queued before the last sender leaves are still
    /// delivered; only then does the channel read as disconnected.
    #[test]
    fn queued_messages_outlive_the_senders() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(1u8).unwrap();
        tx.send(2u8).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn a_cloned_sender_keeps_the_channel_open() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        let handle = std::thread::spawn(move || {
            tx2.send(9u8).unwrap();
        });
        assert_eq!(rx.recv(), Ok(9));
        handle.join().unwrap();
        assert_eq!(rx.recv(), Err(RecvError));
    }
}
