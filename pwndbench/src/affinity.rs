//! CPU pinning for the serving workload: the load generator and the
//! daemon share one CPU. Left to the scheduler, a generator thread and
//! the worker answering it land on the same CPU in one run and on two in
//! the next, and every request's hand-off cost changes with that; on one
//! CPU the hand-off is the same in every run, and the daemon's capacity
//! is one CPU's worth. Successive passes walk the CPUs, so a run samples
//! each of them. Threads inherit the affinity of the thread that spawns
//! them, so pinning the calling thread before `Server::bind` and before
//! the generator starts pins all of them.
//!
//! The standard library has no affinity call, so on x86-64 Linux this
//! issues `sched_getaffinity` / `sched_setaffinity` directly; elsewhere
//! there is nothing to pin and the workload runs unpinned.

/// CPU mask words: room for 1024 CPUs.
const WORDS: usize = 16;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn affinity_syscall(nr: usize, mask: &mut [u64; WORDS]) -> isize {
    let ret: isize;
    // SAFETY: sched_{get,set}affinity(pid 0 = this thread, len, mask)
    // reads or writes at most `len` bytes at `mask`, a live exclusive
    // borrow of exactly that size; the syscall instruction clobbers rcx
    // and r11, declared below, and touches no other memory.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") nr as isize => ret,
            in("rdi") 0usize,
            in("rsi") std::mem::size_of_val(mask),
            in("rdx") mask.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn affinity_syscall(_nr: usize, _mask: &mut [u64; WORDS]) -> isize {
    -1
}

/// The CPUs the calling thread may run on; empty when unknown.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; WORDS];
    if affinity_syscall(204, &mut mask) <= 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Pin the calling thread to `cpus`. Returns whether it took effect.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; WORDS];
    for &c in cpus.iter().filter(|&&c| c < WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    !cpus.is_empty() && affinity_syscall(203, &mut mask) == 0
}

/// Keeps the calling thread, and every thread it spawns meanwhile, on
/// one CPU; dropping it lets the calling thread use all its CPUs again.
pub struct OneCpu {
    restore: Vec<usize>,
    /// The CPU pinned to, if pinning took effect.
    pub cpu: Option<usize>,
}

impl OneCpu {
    /// Pin the calling thread to the `k`-th CPU it may use (wrapping),
    /// so successive `k` walk every CPU.
    pub fn pin(k: usize) -> OneCpu {
        let restore = allowed_cpus();
        let cpu = (!restore.is_empty())
            .then(|| restore[k % restore.len()])
            .filter(|&c| pin_current_thread(&[c]));
        OneCpu { restore, cpu }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if self.cpu.is_some() {
            pin_current_thread(&self.restore);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_trips_in_a_throwaway_thread() {
        std::thread::spawn(|| {
            let cpus = allowed_cpus();
            if cpus.is_empty() {
                return; // no affinity support here
            }
            let one = OneCpu::pin(cpus.len() - 1);
            assert_eq!(one.cpu, cpus.last().copied());
            assert_eq!(allowed_cpus(), vec![*cpus.last().unwrap()]);
            // Threads spawned now inherit the pin.
            let inherited = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(inherited, vec![*cpus.last().unwrap()]);
            drop(one);
            assert_eq!(allowed_cpus(), cpus);
        })
        .join()
        .unwrap();
    }
}
