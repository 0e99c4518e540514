//! The executor the deployment's actors run on.
//!
//! An actor is a blocking body (the cluster node, the broker node, or
//! the thread that drives a deployment) that meets the others only
//! through this module's channels, clock and sleeps. The executor
//! decides what blocking means:
//!
//! * [`Exec::threads`] gives every actor an OS thread and maps virtual
//!   time onto compressed wall-clock sleeps.
//! * [`Exec::seeded`] also gives every actor a thread, but lets one run
//!   at a time. At each blocking point (`recv` on an empty channel, a
//!   join included, `recv_timeout`, `sleep`) the running actor hands its
//!   turn to a runnable actor drawn from a seeded [`Rng`], and virtual time
//!   jumps to the earliest sleeper only when no actor is runnable. The
//!   schedule is a function of the seed, so a failing one replays
//!   exactly. When no actor is runnable and none sleeps, every actor
//!   panics with the blocked actors' names and the seed.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use bad_types::rng::Rng;
use bad_types::{SimDuration, Timestamp};

/// Spawns actors and gives them channels, a clock and sleeps.
#[derive(Clone)]
pub struct Exec(Mode);

#[derive(Clone)]
enum Mode {
    Threads { start: Instant, compression: f64 },
    Seeded(Arc<Sched>),
}

impl Exec {
    /// OS threads, with virtual time running `compression` times faster
    /// than the wall clock: at `60.0` a virtual 250 ms sleep takes about
    /// 4 ms.
    pub fn threads(compression: f64) -> Self {
        Self(Mode::Threads {
            start: Instant::now(),
            compression: compression.max(1e-9),
        })
    }

    /// One actor at a time in virtual time from zero, handing turns
    /// over as `seed` draws. The calling thread is the first actor,
    /// `main`.
    pub fn seeded(seed: u64) -> Self {
        let state = State {
            seed,
            rng: Rng::new(seed),
            now: Timestamp::ZERO,
            running: 0,
            actors: vec![("main".to_owned(), Run::Ready)],
            deadlock: None,
        };
        let sched = Sched(Mutex::new(state), Condvar::new());
        Self(Mode::Seeded(Arc::new(sched)))
    }

    /// The current virtual time.
    pub fn now(&self) -> Timestamp {
        match &self.0 {
            Mode::Threads { start, compression } => {
                Timestamp::ZERO
                    + SimDuration::from_secs_f64(start.elapsed().as_secs_f64() * compression)
            }
            Mode::Seeded(sched) => sched.lock().now,
        }
    }

    /// Blocks the calling actor for a virtual duration.
    pub fn sleep(&self, duration: SimDuration) {
        match &self.0 {
            Mode::Threads { compression, .. } => thread::sleep(real(duration, *compression)),
            Mode::Seeded(sched) => sched.block(Some(self.now() + duration)),
        }
    }

    /// A channel whose receiver blocks as this executor's actors do.
    pub fn channel<T>(&self) -> (Tx<T>, Rx<T>) {
        let (tx, rx) = mpsc::channel();
        let waiter = Arc::new(Waiter(self.clone(), Mutex::new(None), AtomicUsize::new(1)));
        let tx = Tx {
            tx,
            waiter: Arc::clone(&waiter),
        };
        (tx, Rx { rx, waiter })
    }

    /// Starts `body` as an actor named `name`. The returned receiver
    /// gets the body's outcome, `Err` with the payload if it panicked:
    /// `recv` on it joins the actor.
    pub fn spawn(
        &self,
        name: &str,
        body: impl FnOnce() + Send + 'static,
    ) -> Rx<thread::Result<()>> {
        let (done_tx, done) = self.channel();
        let turn = match &self.0 {
            Mode::Threads { .. } => None,
            Mode::Seeded(sched) => {
                let mut state = sched.lock();
                state.actors.push((name.to_owned(), Run::Ready));
                Some((Arc::clone(sched), state.actors.len() - 1))
            }
        };
        thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || {
                if let Some((sched, me)) = &turn {
                    sched.wait_turn(sched.lock(), *me);
                }
                let _ = done_tx.send(panic::catch_unwind(AssertUnwindSafe(body)));
                // Closed before the turn passes on for good.
                drop(done_tx);
                if let Some((sched, me)) = turn {
                    let mut state = sched.lock();
                    state.actors[me].1 = Run::Done;
                    state.hand_off();
                    sched.1.notify_all();
                }
            })
            .expect("spawn an actor thread");
        done
    }
}

/// Virtual `duration` as wall-clock time at `compression`.
fn real(duration: SimDuration, compression: f64) -> Duration {
    Duration::from_secs_f64(duration.as_secs_f64() / compression)
}

/// The seeded executor's turn (which actor runs, and virtual time) and
/// the signal that it moved.
struct Sched(Mutex<State>, Condvar);

struct State {
    seed: u64,
    rng: Rng,
    now: Timestamp,
    running: usize,
    actors: Vec<(String, Run)>,
    deadlock: Option<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Run {
    Ready,
    /// Waiting to be woken, or until a virtual instant.
    Blocked(Option<Timestamp>),
    Done,
}

impl Sched {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Parks the running actor until it is woken or virtual time reaches
    /// `until`, and hands the turn on meanwhile.
    fn block(&self, until: Option<Timestamp>) {
        let mut state = self.lock();
        let me = state.running;
        state.actors[me].1 = Run::Blocked(until);
        state.hand_off();
        self.1.notify_all();
        self.wait_turn(state, me);
    }

    /// Makes a blocked actor runnable again.
    fn wake(&self, actor: usize) {
        let run = &mut self.lock().actors[actor].1;
        if let Run::Blocked(_) = run {
            *run = Run::Ready;
        }
    }

    fn wait_turn(&self, mut state: MutexGuard<'_, State>, me: usize) {
        loop {
            if let Some(message) = state.deadlock.clone() {
                drop(state);
                panic!("{message}");
            }
            if state.running == me {
                return;
            }
            state = self.1.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl State {
    /// Gives the turn to a runnable actor drawn from the seeded stream,
    /// first moving virtual time to the earliest sleeper's wake-up if
    /// no actor is runnable, and signals it.
    fn hand_off(&mut self) {
        loop {
            let now = self.now;
            let runnable =
                |run: &Run| *run == Run::Ready || matches!(*run, Run::Blocked(Some(t)) if t <= now);
            let count = self.actors.iter().filter(|(_, run)| runnable(run)).count();
            if count > 0 {
                let pick = self.rng.below(count as u64) as usize;
                let (next, _) = (self.actors.iter().enumerate())
                    .filter(|(_, (_, run))| runnable(run))
                    .nth(pick)
                    .expect("pick < count");
                self.actors[next].1 = Run::Ready;
                self.running = next;
                return;
            }
            let wake_up = (self.actors.iter())
                .filter_map(|&(_, run)| match run {
                    Run::Blocked(until) => until,
                    _ => None,
                })
                .min();
            match wake_up {
                Some(t) => self.now = t,
                None => {
                    let blocked: Vec<&str> = (self.actors.iter())
                        .filter(|(_, run)| *run != Run::Done)
                        .map(|(name, _)| name.as_str())
                        .collect();
                    self.deadlock = Some(format!(
                        "deadlock at {} under Exec::seeded({}): {} blocked, none can run",
                        self.now,
                        self.seed,
                        blocked.join(", ")
                    ));
                    return;
                }
            }
        }
    }
}

/// The sending half of an executor channel; a clone is another sender.
pub struct Tx<T> {
    tx: mpsc::Sender<T>,
    waiter: Arc<Waiter>,
}

/// The receiving half of an executor channel.
pub struct Rx<T> {
    rx: mpsc::Receiver<T>,
    waiter: Arc<Waiter>,
}

/// The seeded actor parked on a channel's receiver, if any, the
/// executor to wake it on, and the senders left (the last wakes it).
struct Waiter(Exec, Mutex<Option<usize>>, AtomicUsize);

impl Waiter {
    fn park(&self, actor: Option<usize>) -> Option<usize> {
        let mut parked = self.1.lock().unwrap_or_else(PoisonError::into_inner);
        std::mem::replace(&mut parked, actor)
    }

    /// Wakes the parked receiver: a value arrived or a sender left.
    fn wake(&self) {
        if let (Mode::Seeded(sched), Some(actor)) = (&self.0 .0, self.park(None)) {
            sched.wake(actor);
        }
    }
}

impl<T> Tx<T> {
    /// Queues `value`; never blocks.
    ///
    /// # Errors
    ///
    /// Hands `value` back once the receiver is dropped.
    pub fn send(&self, value: T) -> Result<(), T> {
        self.tx.send(value).map_err(|unsent| unsent.0)?;
        self.waiter.wake();
        Ok(())
    }
}

impl<T> Clone for Tx<T> {
    fn clone(&self) -> Self {
        self.waiter.2.fetch_add(1, Ordering::Relaxed);
        Self {
            tx: self.tx.clone(),
            waiter: Arc::clone(&self.waiter),
        }
    }
}

impl<T> Drop for Tx<T> {
    fn drop(&mut self) {
        if self.waiter.2.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.waiter.wake();
        }
    }
}

impl<T> Rx<T> {
    /// Blocks until a value arrives; `None` once every sender is gone
    /// and the queue is empty.
    pub fn recv(&self) -> Option<T> {
        self.wait(None)
    }

    /// Blocks for at most a virtual `timeout`; `None` if nothing came
    /// (or every sender is gone).
    pub fn recv_timeout(&self, timeout: SimDuration) -> Option<T> {
        self.wait(Some(self.waiter.0.now() + timeout))
    }

    fn wait(&self, until: Option<Timestamp>) -> Option<T> {
        let exec = &self.waiter.0;
        match &exec.0 {
            Mode::Threads { compression, .. } => {
                let left = until.map_or(Duration::MAX, |t| real(t.since(exec.now()), *compression));
                self.rx.recv_timeout(left).ok()
            }
            Mode::Seeded(sched) => loop {
                match self.rx.try_recv() {
                    Ok(value) => return Some(value),
                    Err(mpsc::TryRecvError::Disconnected) => return None,
                    Err(mpsc::TryRecvError::Empty) if until.is_some_and(|t| exec.now() >= t) => {
                        return None
                    }
                    Err(mpsc::TryRecvError::Empty) => {
                        self.waiter.park(Some(sched.lock().running));
                        sched.block(until);
                        self.waiter.park(None);
                    }
                }
            },
        }
    }
}
