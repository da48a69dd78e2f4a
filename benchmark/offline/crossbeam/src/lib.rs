//! Offline stand-in for `crossbeam`: the one item the tracon library
//! crates use, `thread::scope`, over `std::thread::scope`.

pub mod thread {
    //! Scoped threads with crossbeam's closure shapes.

    /// Wraps the std scope so spawned closures receive a scope argument,
    /// as crossbeam's do.
    pub struct Scope<'scope, 'env: 'scope>(&'scope std::thread::Scope<'scope, 'env>);

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread.
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.0;
            inner.spawn(move || f(&Scope(inner)))
        }
    }

    /// Runs `f` with a scope and joins every thread it spawned. Unlike
    /// crossbeam, a panicking child propagates its panic from here (the
    /// std behaviour) instead of surfacing as `Err`.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope(s))))
    }
}
