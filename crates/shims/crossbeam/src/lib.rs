//! Offline stand-in for the `crossbeam` crate (see `crates/shims/`).
//!
//! Provides the one piece the simulated YGM runtime relies on:
//!
//! * `channel::unbounded` — an MPMC unbounded channel whose `Sender` and
//!   `Receiver` are both `Send + Sync` (std's mpsc does not guarantee a
//!   `Sync` sender on older toolchains), built on a mutex-protected deque.
//!   Throughput is adequate here because the runtime batches many RPCs per
//!   channel message (aggregation buffers), so channel ops are rare.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Mutex};

    /// Receivers only poll (`try_recv`), so there is nothing to wake on a
    /// send: the channel is the locked queue and nothing else.
    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
    }

    /// Sending side of an unbounded channel. Cloneable, `Send + Sync`.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// Receiving side of an unbounded channel. Cloneable, `Send + Sync`.
    pub struct Receiver<T>(Arc<Chan<T>>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver(Arc::clone(&self.0))
        }
    }

    /// Error returned by [`Sender::send`]; the shim's channels never close,
    /// so it is never actually produced, but the type keeps call sites
    /// (`.expect(...)`) compiling unchanged.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a closed channel")
        }
    }

    /// Error returned by [`Receiver::try_recv`] when the queue is empty.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Queue empty right now.
        Empty,
        /// All senders dropped (not distinguished by this shim).
        Disconnected,
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.push_back(value);
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.pop_front().ok_or(TryRecvError::Empty)
        }

        pub fn len(&self) -> usize {
            self.0.queue.lock().unwrap_or_else(|e| e.into_inner()).len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, TryRecvError};

    #[test]
    fn channel_delivers_in_order() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn senders_are_sync_across_threads() {
        let (tx, rx) = unbounded::<usize>();
        std::thread::scope(|s| {
            for i in 0..4 {
                let tx = &tx;
                s.spawn(move || tx.send(i).unwrap());
            }
        });
        let mut got: Vec<usize> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
