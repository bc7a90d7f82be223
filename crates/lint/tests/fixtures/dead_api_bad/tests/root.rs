#[test]
fn root() {
    let _ = app::Node::new();
}
