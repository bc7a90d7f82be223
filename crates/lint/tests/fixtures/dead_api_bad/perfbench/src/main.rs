fn main() {
    app::used_by_perfbench();
}
