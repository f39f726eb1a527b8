//! Local-structure sizes: sparse-vs-dense local entries (the paper's
//! "local structures become more sparse" claim).

use bench::figures;

fn main() {
    figures::local_structures();
}
