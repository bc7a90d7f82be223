use app::wire;

proptest::proptest! {
    #[test]
    fn in_macro(x in 0u8..4) {
        app::only_in_macro_test();
        let _ = x;
    }
}

#[test]
fn decodes() {
    assert_eq!(wire::decode(b"ab"), 2);
}
