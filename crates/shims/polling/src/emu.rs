//! Portable fallback backend: short-timeout poll emulation.
//!
//! No OS readiness primitive at all — `wait` parks on a condvar for at
//! most ~1 ms, then reports **every registered key as ready at its
//! registered interest**. Correct (never blocks progress, because all
//! reactor I/O is nonblocking and tolerates `WouldBlock`), just not
//! efficient: the price of portability, and of keeping the fallback
//! testable on Linux via `DGC_POLL_EMULATION=1`.

use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::{Interest, PollEvent};

/// Longest single park: keeps worst-case data latency bounded even
/// though nothing signals socket readiness.
const MAX_SLICE: Duration = Duration::from_millis(1);

struct State {
    woken: bool,
    waker_key: Option<usize>,
    registered: HashMap<usize, Interest>,
}

/// State shared between the emulated poller and its waker.
pub(crate) struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

impl Shared {
    pub(crate) fn wake(&self) {
        let mut st = self.state.lock().unwrap();
        st.woken = true;
        self.cv.notify_all();
    }

    pub(crate) fn clear(&self) {
        self.state.lock().unwrap().woken = false;
    }

    #[cfg(test)]
    pub(crate) fn woken(&self) -> bool {
        self.state.lock().unwrap().woken
    }
}

pub(crate) struct Emu {
    shared: Arc<Shared>,
}

impl Emu {
    pub(crate) fn new() -> Emu {
        Emu {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    woken: false,
                    waker_key: None,
                    registered: HashMap::new(),
                }),
                cv: Condvar::new(),
            }),
        }
    }

    pub(crate) fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    pub(crate) fn set_waker(&self, key: usize) {
        self.shared.state.lock().unwrap().waker_key = Some(key);
    }

    pub(crate) fn add(&self, key: usize, interest: Interest) -> io::Result<()> {
        let mut st = self.shared.state.lock().unwrap();
        if st.registered.insert(key, interest).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "key already registered",
            ));
        }
        Ok(())
    }

    pub(crate) fn modify(&self, key: usize, interest: Interest) -> io::Result<()> {
        let mut st = self.shared.state.lock().unwrap();
        match st.registered.get_mut(&key) {
            Some(slot) => {
                *slot = interest;
                Ok(())
            }
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "key not registered",
            )),
        }
    }

    pub(crate) fn delete(&self, key: usize) -> io::Result<()> {
        let mut st = self.shared.state.lock().unwrap();
        match st.registered.remove(&key) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                "key not registered",
            )),
        }
    }

    pub(crate) fn wait(
        &self,
        out: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        let slice = timeout.map_or(MAX_SLICE, |t| t.min(MAX_SLICE));
        let mut st = self.shared.state.lock().unwrap();
        if !st.woken && !slice.is_zero() {
            st = self.shared.cv.wait_timeout(st, slice).unwrap().0;
        }
        let mut pushed = 0;
        // Level-triggered like the pipe: the waker reports until its
        // `clear`.
        if st.woken {
            if let Some(key) = st.waker_key {
                out.push(PollEvent {
                    key,
                    readable: true,
                    writable: false,
                });
                pushed += 1;
            }
        }
        for (&key, &interest) in &st.registered {
            if interest.readable || interest.writable {
                out.push(PollEvent {
                    key,
                    readable: interest.readable,
                    writable: interest.writable,
                });
                pushed += 1;
            }
        }
        Ok(pushed)
    }
}
