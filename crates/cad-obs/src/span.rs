//! Lightweight nested spans: `span!("phase")` times a scope and feeds
//! the span aggregates of the current [`crate::Registry`].
//!
//! Nesting is tracked per thread: a span entered while another is open
//! on the same thread records under the slash-joined path of its
//! ancestors (`detect/score_transitions`). Worker threads of the
//! `cad_linalg::par` pool start with an empty stack, so spans opened
//! inside a worker aggregate under their own top-level path — their
//! wall-times still land in the same named buckets regardless of the
//! striping, and no result data ever flows through spans (see
//! [`crate::stats`] for why).
//!
//! The macro accepts optional `key = value` fields for call-site
//! context, e.g. `span!("oracle_build", instance = t)`. Fields do not
//! split the aggregate (per-item values would explode the key space);
//! they are formatted into the span label and surfaced through the
//! [`crate::progress!`] sink at debug verbosity.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard for one span occurrence; records on drop.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    label: Option<String>,
    start: Instant,
}

impl SpanGuard {
    /// Open a span named `name` on the current thread.
    pub fn enter(name: &'static str) -> SpanGuard {
        STACK.with(|s| s.borrow_mut().push(name));
        SpanGuard {
            name,
            label: None,
            start: Instant::now(),
        }
    }

    /// Open a span with a formatted field label (used by the macro's
    /// `key = value` form).
    pub fn enter_labeled(name: &'static str, label: String) -> SpanGuard {
        let mut g = Self::enter(name);
        g.label = Some(label);
        g
    }

    /// The slash-joined path of the current thread's open spans.
    pub fn current_path() -> String {
        STACK.with(|s| s.borrow().join("/"))
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            // Pop our own frame; tolerate foreign pops from mismatched
            // drop order rather than panicking in a destructor.
            if stack.last() == Some(&self.name) {
                stack.pop();
            }
            path
        });
        crate::metrics::with_current(|r| r.record_span(&path, secs));
        if let Some(label) = &self.label {
            crate::progress::debug(&format!("span {path} [{label}] {:.3}ms", secs * 1e3));
        }
    }
}

/// Time the rest of the enclosing scope as a named span.
///
/// ```
/// # use cad_obs::span;
/// let _s = span!("oracle_build");
/// let t = 3;
/// let _inner = span!("solve", instance = t);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
    ($name:expr, $($key:ident = $value:expr),+ $(,)?) => {
        $crate::span::SpanGuard::enter_labeled(
            $name,
            [$(format!(concat!(stringify!($key), "={}"), $value)),+].join(" "),
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;
    use std::sync::Arc;

    #[test]
    fn nesting_builds_slash_paths() {
        let reg = Arc::new(Registry::new());
        let _g = reg.enter();
        {
            let _outer = span!("test_span_outer");
            assert_eq!(SpanGuard::current_path(), "test_span_outer");
            {
                let _inner = span!("test_span_inner");
                assert_eq!(SpanGuard::current_path(), "test_span_outer/test_span_inner");
            }
        }
        let snap = reg.snapshot();
        assert_eq!(snap.spans["test_span_outer"].calls, 1);
        assert_eq!(snap.spans["test_span_outer/test_span_inner"].calls, 1);
        assert!(snap.spans["test_span_outer"].total_secs >= 0.0);
    }

    #[test]
    fn repeated_entries_aggregate() {
        let reg = Arc::new(Registry::new());
        let _g = reg.enter();
        for _ in 0..3 {
            let _s = span!("test_span_repeat");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.spans["test_span_repeat"].calls, 3);
    }

    #[test]
    fn labeled_form_compiles_and_records() {
        let reg = Arc::new(Registry::new());
        let _g = reg.enter();
        let t = 7;
        {
            let _s = span!("test_span_labeled", instance = t, row = 2);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.spans["test_span_labeled"].calls, 1);
    }

    #[test]
    fn fresh_thread_starts_at_top_level() {
        let handle = std::thread::spawn(|| {
            let _s = span!("test_span_worker");
            SpanGuard::current_path()
        });
        assert_eq!(handle.join().unwrap(), "test_span_worker");
    }
}
