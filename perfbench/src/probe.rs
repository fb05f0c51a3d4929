//! The application echo: a closed-loop, single client on node 0 asking a
//! server on node 1 for a 64-byte echo, with a pause between a reply and
//! the next request.
//!
//! The driver sends each request through `Cluster::send_app`; node 0's
//! reply handler, on the node's event loop, checks the reply against its
//! request and takes the round-trip time, so the driver's own wake-ups
//! stay out of the figure.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use dgc_core::id::AoId;
use dgc_rt_net::AppSend;

use crate::gen;
use crate::net::Net;
use crate::trace::Tracer;

/// The client's pause between a reply and its next request. The echo
/// is a probe, not a load: back to back, it would set the event loops'
/// turn rate and the loops' own costs with it.
const THINK: Duration = Duration::from_millis(10);
/// A request without its reply by then has failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(1);

#[derive(Default)]
struct Client {
    seq: u64,
    /// The request in flight; its reply must equal it byte for byte.
    expect: Vec<u8>,
    sent_at: Option<Instant>,
    /// When the last reply (or give-up) ended a request.
    done_at: Option<Instant>,
    /// Round trips of byte-equal replies, ms.
    rtts: Vec<f64>,
    /// Replies that were not byte-equal to their request.
    corrupt: u64,
    timeouts: u64,
}

type Shared = Arc<Mutex<Client>>;

fn lock(c: &Shared) -> MutexGuard<'_, Client> {
    c.lock()
        .expect("echo client state is never left half-updated")
}

pub struct Probe {
    client: Shared,
    /// `(client, server)`.
    ends: (AoId, AoId),
    seed: u64,
}

/// What the echo measured.
#[derive(Debug, Default)]
pub struct Echoes {
    /// Round trips of byte-equal replies, ms.
    pub rtts: Vec<f64>,
    /// Requests judged: replied, corrupt or timed out.
    pub requests: u64,
    /// Corrupt or timed-out requests.
    pub failed: u64,
}

impl Probe {
    /// Installs the echo handler on node 1 (on `server`) and the
    /// client's reply handler on node 0 (for `client`).
    pub fn install(net: &Net, client: AoId, server: AoId, seed: u64) -> Probe {
        net.cluster.set_app_handler(1, |r| {
            vec![AppSend {
                from: r.to,
                to: r.from,
                reply: true,
                payload: r.payload.clone(),
            }]
        });
        let shared: Shared = Arc::default();
        let state = Arc::clone(&shared);
        net.cluster.set_app_handler(0, move |r| {
            let now = Instant::now();
            let mut c = lock(&state);
            // Only the request in flight counts: a late reply to one the
            // driver gave up on carries an older sequence number.
            if r.payload.get(..8) == c.expect.get(..8) {
                match c.sent_at.take() {
                    Some(at) if r.payload == c.expect => {
                        c.rtts.push((now - at).as_secs_f64() * 1e3);
                    }
                    _ => c.corrupt += 1,
                }
                c.expect.clear();
                c.done_at = Some(now);
            }
            Vec::new()
        });
        crate::net::sync(&net.cluster);
        Probe {
            client: shared,
            ends: (client, server),
            seed,
        }
    }

    /// Sends the next request when it is due: `THINK` after the last
    /// reply, or at once in place of a request `REPLY_TIMEOUT` old.
    /// Returns when to look again.
    pub fn tick(&self, net: &Net, tr: &mut Tracer) -> Instant {
        let now = Instant::now();
        let payload = {
            let mut c = lock(&self.client);
            match (c.sent_at, c.done_at) {
                (Some(at), _) if now - at < REPLY_TIMEOUT => return at + REPLY_TIMEOUT,
                (Some(_), _) => c.timeouts += 1,
                (None, Some(done)) if now - done < THINK => return done + THINK,
                _ => {}
            }
            c.seq += 1;
            c.expect = gen::echo_payload(self.seed, c.seq);
            c.sent_at = Some(now);
            c.expect.clone()
        };
        let s = tr.begin("api.send_app");
        net.cluster
            .send_app(self.ends.0, self.ends.1, false, payload);
        tr.end(s);
        now + REPLY_TIMEOUT.min(THINK)
    }

    /// Takes what was measured since the last take; a request still in
    /// flight is not judged.
    pub fn take(&self) -> Echoes {
        let mut c = lock(&self.client);
        let rtts = std::mem::take(&mut c.rtts);
        let failed = std::mem::take(&mut c.corrupt) + std::mem::take(&mut c.timeouts);
        Echoes {
            requests: rtts.len() as u64 + failed,
            failed,
            rtts,
        }
    }
}
