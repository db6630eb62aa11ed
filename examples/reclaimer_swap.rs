//! The Record Manager abstraction in action: the *same* data structure code runs under
//! every registered reclamation scheme — only type parameters change (paper, Section 6).
//!
//! ```text
//! cargo run --release --example reclaimer_swap
//! ```

use std::sync::Arc;
use std::time::Instant;

use debra_repro::debra::Reclaimer;
use debra_repro::for_each_scheme;
use debra_repro::lockfree_ds::{ConcurrentMap, HarrisMichaelList, ListNode};
use debra_repro::schemes::{self, Manager, Scheme};

type Node = ListNode<u64, u64>;

/// The benchmark body is written once, generically over the scheme: its reclaimer and
/// its default allocation pipeline (the type-stable page pool for VBR, which requires
/// it; the malloc-backed pool for everything else).  `main` runs it for every entry of
/// the scheme registry, so a scheme added there shows up here with no change.
fn run<S: Scheme>() {
    let threads = 3;
    let manager: Arc<Manager<S, Node>> = Arc::new(Manager::<S, Node>::new(threads));
    let list = Arc::new(HarrisMichaelList::new(Arc::clone(&manager)));

    let start = Instant::now();
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let list = Arc::clone(&list);
            scope.spawn(move || {
                let mut handle = list.register().expect("register");
                let mut x = 0x9E3779B97F4A7C15u64 ^ tid as u64;
                for _ in 0..40_000u64 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let key = (x >> 33) % 512;
                    match x % 3 {
                        0 => {
                            list.insert(&mut handle, key, key);
                        }
                        1 => {
                            list.remove(&mut handle, &key);
                        }
                        _ => {
                            list.contains(&mut handle, &key);
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let stats = manager.reclaimer().stats();
    println!(
        "{:10} | {:6.1} ms | retired {:>8} | reclaimed {:>8} | still in limbo {:>6}",
        S::name(),
        elapsed.as_secs_f64() * 1e3,
        stats.retired,
        stats.reclaimed,
        stats.pending,
    );
}

fn main() {
    println!("scheme     | time      | retired         | reclaimed          | limbo");
    for id in schemes::IDS {
        for_each_scheme!(match *id => run());
    }
    println!(
        "\nSame list code, {} reclamation schemes — only the type parameters changed.",
        schemes::IDS.len()
    );
}
