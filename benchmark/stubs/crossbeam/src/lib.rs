//! Offline stand-in for `crossbeam`: `thread::scope` with crossbeam's
//! calling convention (spawned closures receive the scope, the call returns
//! a `Result`), implemented over `std::thread::scope`.

pub mod thread {
    /// A scope handle passed to [`scope`]'s closure and to every spawned
    /// closure.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Join handle of a scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<T> ScopedJoinHandle<'_, T> {
        /// Wait for the thread and return its result, or its panic payload.
        pub fn join(self) -> std::thread::Result<T> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawn a thread that may borrow from the enclosing scope.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.inner;
            ScopedJoinHandle {
                inner: inner.spawn(move || f(&Scope { inner })),
            }
        }
    }

    /// Run `f` with a scope; every thread spawned in it is joined before
    /// this returns. A panic in an unjoined thread propagates as a panic
    /// (std semantics) rather than as `Err`, which every caller in this
    /// repository treats as fatal anyway.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}
