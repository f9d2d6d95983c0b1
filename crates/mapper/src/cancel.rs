//! Cooperative cancellation and the per-task context for mapper
//! searches.
//!
//! Two layers compose here:
//!
//! * a **process-wide shutdown flag** — flipped by a signal handler (or
//!   a test) via [`request_shutdown`]; setting an atomic is
//!   async-signal-safe, so this is the only thing a handler does;
//! * a **per-task [`TaskContext`]** — the cancel tokens of one
//!   supervised attempt and of the service job it belongs to, the
//!   attempt's cache-bypass flag, and any armed [`crate::FaultPlan`].
//!   A watchdog can abandon exactly one stalled task, and a client can
//!   cancel exactly one job, without touching their siblings.
//!
//! Both are checked together by [`cancelled`] at the mapper's chunk
//! boundaries (the same stride that polls the search deadline), so a
//! cancelled search stops within one [`crate::CHUNK_SAMPLES`] chunk and
//! returns [`crate::MapperError::Cancelled`] instead of partial
//! garbage.
//!
//! The context travels through a thread-local [`TaskScope`] rather than
//! through [`crate::SearchConfig`] (which is `Copy` and serialised into
//! cache keys). Whoever starts a task enters a scope on its thread —
//! the service per job, [`crate::FaultScope`] per armed plan, the
//! supervisor per attempt — and anything that moves the task's work to
//! another thread re-enters the caller's context there (the sweep's
//! workers, the supervisor's watchdog thread). [`crate::search`] reads
//! it once at entry, and the chunk workers it spawns capture the clone.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::fault::ArmedPlan;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Flip the process-wide shutdown flag. Safe to call from a signal
/// handler: it only stores to an atomic.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Whether a shutdown has been requested (and not yet reset).
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Clear the shutdown flag. For tests and for re-entrant embedders; the
/// CLI never resets — it drains and exits.
pub fn reset_shutdown() {
    SHUTDOWN.store(false, Ordering::SeqCst);
}

/// A cloneable cancellation flag shared between a supervised task and
/// its watchdog.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Cancel the task holding this token (idempotent).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Per-task context: what a search needs to know about the task it runs
/// for, installed on the task's threads by [`TaskScope`].
#[derive(Debug, Clone, Default)]
pub struct TaskContext {
    /// Cancellation token the watchdog may trip.
    pub token: Option<CancelToken>,
    /// Job-level cancellation token, shared by every task a service
    /// job runs. Tripped by a client `cancel` request; cancels all of
    /// the job's in-flight searches without touching its siblings'.
    pub job_token: Option<CancelToken>,
    /// Bypass the candidate cache for this attempt. Set on retries
    /// after a panic or timeout: a key whose computation just crashed
    /// must not be answered from (or written into) shared state.
    pub bypass_cache: bool,
    /// The fault plan armed for this task by [`crate::FaultScope`].
    pub fault: Option<Arc<ArmedPlan>>,
}

thread_local! {
    static TASK: RefCell<TaskContext> = RefCell::new(TaskContext::default());
}

/// RAII guard installing a [`TaskContext`] on the current thread.
pub struct TaskScope {
    previous: TaskContext,
}

impl TaskScope {
    /// Install `ctx` until the returned scope drops.
    pub fn enter(ctx: TaskContext) -> TaskScope {
        let previous = TASK.with(|t| std::mem::replace(&mut *t.borrow_mut(), ctx));
        TaskScope { previous }
    }
}

impl Drop for TaskScope {
    fn drop(&mut self) {
        let previous = std::mem::take(&mut self.previous);
        TASK.with(|t| *t.borrow_mut() = previous);
    }
}

/// The current thread's task context (cloned; tokens share state).
pub fn current_context() -> TaskContext {
    TASK.with(|t| t.borrow().clone())
}

/// Whether the current thread's task must bypass the candidate cache:
/// a retry after a crash (see [`TaskContext::bypass_cache`]), or an
/// armed fault plan, whose faults key on layer names that the cache key
/// deliberately omits.
pub fn cache_bypassed() -> bool {
    TASK.with(|t| {
        let t = t.borrow();
        t.bypass_cache || t.fault.is_some()
    })
}

/// Whether `ctx`'s task should stop: either its own token was cancelled
/// or a process-wide shutdown is in flight.
pub fn cancelled(ctx: &TaskContext) -> bool {
    shutdown_requested()
        || ctx.token.as_ref().is_some_and(CancelToken::is_cancelled)
        || ctx
            .job_token
            .as_ref()
            .is_some_and(CancelToken::is_cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancels_exactly_its_task() {
        let a = CancelToken::new();
        let b = a.clone();
        let other = CancelToken::new();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled(), "clones share the flag");
        assert!(!other.is_cancelled(), "independent tokens are untouched");
    }

    #[test]
    fn task_scope_installs_and_restores() {
        assert!(!cache_bypassed());
        let token = CancelToken::new();
        {
            let _scope = TaskScope::enter(TaskContext {
                token: Some(token.clone()),
                bypass_cache: true,
                ..TaskContext::default()
            });
            assert!(cache_bypassed());
            let ctx = current_context();
            assert!(!cancelled(&ctx));
            token.cancel();
            assert!(cancelled(&ctx));
        }
        assert!(!cache_bypassed(), "scope restores the previous context");
        assert!(!cancelled(&current_context()));
    }

    #[test]
    fn job_token_cancels_every_task_in_the_job() {
        let job = CancelToken::new();
        let ctx = TaskContext {
            token: Some(CancelToken::new()),
            job_token: Some(job.clone()),
            ..TaskContext::default()
        };
        assert!(!cancelled(&ctx));
        job.cancel();
        assert!(cancelled(&ctx), "job token trips the whole job");
        assert!(
            !ctx.token.as_ref().unwrap().is_cancelled(),
            "per-task token is left alone"
        );
    }

    // The process-wide shutdown flag is exercised in the serialised
    // `supervision` integration suite: flipping it here would race
    // with the search tests running concurrently in this process.
}
