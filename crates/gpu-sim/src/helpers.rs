//! A device's parked pre-pass helpers: host threads started by the first
//! launch that asks for them and kept from launch to launch, so a launch
//! posts its pre-pass to threads that are already there instead of
//! spawning, waiting for and joining one.
//!
//! A launch hands its helpers one job, a closure it borrows for the
//! launch ([`Board::run`]). Each helper the launch asks for runs the job
//! once, on its own thread, while the launching thread runs its lanes;
//! the launch returns, or unwinds, only after every helper has left the
//! job. Between launches the helpers wait on a condition variable, and
//! when the device is dropped they are told to exit and joined.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// The closure a launch posts, borrowing what it reads for `'a`. It is
/// posted as a `Job<'static>` (see [`Board::run`]).
type Job<'a> = dyn Fn() + Sync + 'a;

/// A payload a helper's job panicked with.
pub(crate) type Panic = Box<dyn Any + Send>;

/// The helper threads a [`crate::Device`] owns, and the board they watch.
#[derive(Default)]
pub(crate) struct Helpers {
    board: Arc<Board>,
    threads: Vec<JoinHandle<()>>,
}

/// What the helpers and the launching thread share.
#[derive(Default)]
pub(crate) struct Board {
    state: Mutex<State>,
    /// Signalled when a job is posted or the helpers are to exit.
    posted: Condvar,
    /// Signalled when the last helper running a job leaves it.
    left: Condvar,
}

#[derive(Default)]
struct State {
    /// The posted job, until the launch withdraws it.
    job: Option<&'static Job<'static>>,
    /// Counts posts, so a helper runs each job at most once.
    post: u64,
    /// Helpers the posted job may still take.
    seats: usize,
    /// Helpers inside the posted job.
    running: usize,
    /// The first panic a helper's job raised in this post.
    panic: Option<Panic>,
    /// The device is dropped: every helper returns.
    exit: bool,
}

impl Board {
    fn state(&self) -> MutexGuard<'_, State> {
        // No job runs under the lock, so nothing poisons it that left the
        // state half-written.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `main` on the calling thread while `seats` helpers each run
    /// `job` once. Returns `main`'s value and the first panic a helper's
    /// run of `job` raised, once no helper is inside `job`; when `main`
    /// unwinds, that waits too and the helpers' panics are dropped. `job`
    /// must return soon after `main` does, or the launch waits for it.
    #[allow(unsafe_code)]
    pub(crate) fn run<'a, R>(&self, seats: usize, job: &'a Job<'a>, main: impl FnOnce() -> R) -> (R, Option<Panic>) {
        // SAFETY: the helpers hold `job` as `&'static` while it is posted,
        // but it is borrowed only for this call. `Posted` withdraws it on
        // drop, which runs whether `main` returns or unwinds, and the guard
        // never leaves this frame, so it cannot be forgotten. Withdrawing
        // takes the job off the board under the lock, after which no
        // helper can take it, and then blocks until `running` is zero:
        // every helper that took it has returned from it. Only then does
        // the borrow of `job` end.
        let job = unsafe { std::mem::transmute::<&'a Job<'a>, &'static Job<'static>>(job) };
        let value = {
            let _posted = self.post(job, seats);
            main()
        };
        (value, self.state().panic.take())
    }

    fn post(&self, job: &'static Job<'static>, seats: usize) -> Posted<'_> {
        {
            let mut state = self.state();
            state.job = Some(job);
            state.post += 1;
            state.seats = seats;
            state.panic = None;
        }
        self.posted.notify_all();
        Posted(self)
    }

    /// A helper's life: take each posted job it has a seat at, run it
    /// outside the lock, and park in between, until the device is dropped.
    fn serve(&self) {
        let mut last = 0;
        let mut state = self.state();
        while !state.exit {
            match state.job {
                Some(job) if state.seats > 0 && state.post != last => {
                    last = state.post;
                    state.seats -= 1;
                    state.running += 1;
                    drop(state);
                    // A panic stays on this thread's run of the job: the
                    // helper lives on, and the launch re-raises the first.
                    let outcome = catch_unwind(AssertUnwindSafe(job));
                    state = self.state();
                    state.running -= 1;
                    if let Err(payload) = outcome {
                        state.panic.get_or_insert(payload);
                    }
                    if state.running == 0 {
                        self.left.notify_all();
                    }
                }
                _ => state = self.posted.wait(state).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// A posted job, withdrawn on drop.
struct Posted<'a>(&'a Board);

impl Drop for Posted<'_> {
    fn drop(&mut self) {
        let mut state = self.0.state();
        state.job = None;
        state.seats = 0;
        while state.running > 0 {
            state = self.0.left.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Helpers {
    /// The board of at least `n` parked helpers, starting the ones
    /// missing.
    pub(crate) fn at_least(&mut self, n: usize) -> Arc<Board> {
        while self.threads.len() < n {
            let board = Arc::clone(&self.board);
            let thread = std::thread::Builder::new()
                .name("gpu-sim-helper".into())
                .spawn(move || board.serve())
                .expect("spawn a pre-pass helper");
            self.threads.push(thread);
        }
        Arc::clone(&self.board)
    }

    /// The helpers' board, for a test to watch it outlive them.
    #[cfg(test)]
    pub(crate) fn board(&self) -> std::sync::Weak<Board> {
        Arc::downgrade(&self.board)
    }
}

impl Drop for Helpers {
    fn drop(&mut self) {
        self.board.state().exit = true;
        self.board.posted.notify_all();
        for thread in self.threads.drain(..) {
            // A job's panic was caught on its helper, so a join fails only
            // if the helper's own loop did; nothing is left to report.
            let _ = thread.join();
        }
    }
}

impl std::fmt::Debug for Helpers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Helpers").field("threads", &self.threads.len()).finish()
    }
}
