//! The LEBench microbenchmark suite (Ren et al., SOSP'19), as used in
//! Figure 9.2: per-syscall latency microbenchmarks covering the kernel
//! operations that dominate Linux workloads.

use crate::spec::{SyscallStep, Workload};
use persp_kernel::syscalls::Sysno;

fn step(sys: Sysno, arg0: u64, arg2: u64) -> SyscallStep {
    SyscallStep::new(sys, arg0, arg2)
}

/// The LEBench tests, in the paper's figure order. Iteration counts are
/// scaled for simulation (relative latencies are what Figure 9.2 reports).
pub fn suite() -> Vec<Workload> {
    let w = |name, steps: Vec<SyscallStep>, iters| Workload {
        name,
        startup_steps: Vec::new(),
        steps,
        iters,
        user_work: 0,
    };
    vec![
        w("getpid", vec![step(Sysno::Getpid, 0, 0)], 40),
        w("context-switch", vec![step(Sysno::SchedYield, 0, 0)], 40),
        w("send", vec![step(Sysno::Send, 3, 16)], 30),
        w("recv", vec![step(Sysno::Recv, 3, 16)], 30),
        w("select", vec![step(Sysno::Select, 128, 0)], 15),
        w("poll", vec![step(Sysno::Poll, 128, 0)], 15),
        w("epoll", vec![step(Sysno::EpollWait, 128, 0)], 15),
        w("small-read", vec![step(Sysno::Read, 3, 8)], 30),
        w("big-read", vec![step(Sysno::Read, 3, 384)], 8),
        w("small-write", vec![step(Sysno::Write, 3, 8)], 30),
        w("big-write", vec![step(Sysno::Write, 3, 384)], 8),
        w("mmap", vec![step(Sysno::Mmap, 16, 0)], 20),
        w(
            "munmap",
            vec![step(Sysno::Mmap, 4, 0), step(Sysno::Munmap, 0, 0)],
            20,
        ),
        w("brk", vec![step(Sysno::Brk, 0, 0)], 30),
        w("page-fault", vec![step(Sysno::PageFault, 0, 0)], 30),
        w("fork", vec![step(Sysno::Fork, 0, 0)], 8),
        w("big-fork", vec![step(Sysno::Fork, 64, 0)], 8),
        w("thread-create", vec![step(Sysno::Clone, 0, 0)], 15),
    ]
}

/// Look up one test by name.
pub fn by_name(name: &str) -> Option<Workload> {
    suite().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ArgVal;
    use std::collections::BTreeSet;

    #[test]
    fn suite_shape() {
        let s = suite();
        assert_eq!(s.len(), 18, "LEBench coverage");
        let mut names: Vec<&str> = s.iter().map(|w| w.name).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "unique names");
        assert!(s.iter().all(|w| w.iters > 0 && !w.steps.is_empty()));
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("select").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn union_profile_covers_many_syscalls() {
        let p: BTreeSet<Sysno> = suite().iter().flat_map(|w| w.syscall_profile()).collect();
        assert!(p.len() >= 12, "{p:?}");
        assert!(p.contains(&Sysno::Select));
        assert!(p.contains(&Sysno::Fork));
    }

    #[test]
    fn buffers_are_buffers() {
        // LEBench buffers point at real user memory.
        let steps = suite().into_iter().flat_map(|w| w.steps);
        assert!(steps.into_iter().all(|s| matches!(s.arg1, ArgVal::Buf(_))));
    }
}
