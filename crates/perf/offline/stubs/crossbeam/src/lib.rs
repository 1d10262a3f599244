//! Offline stand-in for the slice of `crossbeam` 0.8 the Pandora crates
//! use: `channel::bounded` with cloneable senders, over the standard
//! library's `sync_channel`. Only the control-path RPC to memory nodes
//! uses it — never the data path.

pub mod channel {
    use std::sync::mpsc;

    pub use std::sync::mpsc::{RecvError, SendError};

    #[derive(Debug)]
    pub struct Sender<T>(mpsc::SyncSender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    #[derive(Debug)]
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }

        pub fn iter(&self) -> mpsc::Iter<'_, T> {
            self.0.iter()
        }
    }

    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(tx), Receiver(rx))
    }
}
