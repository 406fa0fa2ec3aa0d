//! The daemon's one lock policy: its locks are never poisoned.
//!
//! A `std` lock poisons when a thread panics while holding it, and every
//! later acquisition then returns an error. The daemon does not pass that
//! error on. Each of its critical sections is a few container operations
//! (push, pop, insert, take, replace of a whole value) whose only panic
//! is an allocation failure, which aborts, or a registration-time kind
//! mismatch in the metrics registry, which changes nothing before it
//! panics. So no section can stop half way and leave a broken value
//! behind, and failing every later request on that lock would turn one
//! bug into an outage. Every acquisition under `crates/serve/src` goes
//! through these two functions, which take the guard out of a poisoned
//! lock.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, poisoned or not.
pub(crate) fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `condvar` with `guard`, poisoned or not.
pub(crate) fn wait<'a, T>(condvar: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    condvar.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panicking_holder_leaves_the_lock_usable() {
        let mutex = Mutex::new(vec![1]);
        std::thread::scope(|s| {
            let poisoned = s.spawn(|| {
                let _m = lock(&mutex);
                panic!("a bug while holding the lock");
            });
            assert!(poisoned.join().is_err());
        });
        assert!(mutex.is_poisoned());
        lock(&mutex).push(3);
        assert_eq!(lock(&mutex).clone(), vec![1, 3]);
    }
}
