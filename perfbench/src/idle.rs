//! Keeps the cores out of the guest's idle state while a run measures.
//!
//! On a virtual machine an idle vCPU halts, and waking it for the next
//! request costs a trip through the hypervisor whose price changes from
//! run to run. Sub-millisecond latencies then measure that price more
//! than the program. One spinner thread per core, under `SCHED_IDLE`,
//! runs only when nothing else wants the core and yields it at once to
//! any thread that wakes, so no core ever halts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `struct sched_param` from `<sched.h>`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// `SCHED_IDLE` from `<sched.h>` (Linux).
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Move the calling thread to `SCHED_IDLE`. Returns whether it worked.
fn make_idle_class() -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `sched_setscheduler` reads one `sched_param` through the
    // pointer, which points at a live, properly laid out local; pid 0
    // names the calling thread and changes nothing else.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

/// The spinner threads; dropping this stops and joins them.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    /// One spinner per core. Spinners that cannot enter `SCHED_IDLE`
    /// exit at once rather than compete with the program.
    pub fn start(cores: usize) -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..cores)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    if !make_idle_class() {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..256 {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
