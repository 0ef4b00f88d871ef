//! Timers: `sleep` and `timeout`, fired by the reactor thread (see
//! `timer`). A pending [`Sleep`] holds exactly one timer entry and removes
//! it when dropped.

use crate::timer;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Future returned by [`sleep`].
pub struct Sleep {
    deadline: Instant,
    /// The registered timer entry and the waker it holds.
    entry: Option<(timer::Key, Waker)>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let me = &mut *self;
        if Instant::now() >= me.deadline {
            return Poll::Ready(());
        }
        match &me.entry {
            Some((_, waker)) if waker.will_wake(cx.waker()) => {}
            entry => {
                let key = entry
                    .as_ref()
                    .map_or_else(|| timer::Key::new(me.deadline), |e| e.0);
                timer::set(key, cx.waker().clone());
                me.entry = Some((key, cx.waker().clone()));
            }
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some((key, _)) = self.entry.take() {
            timer::cancel(key);
        }
    }
}

/// Completes once `duration` has elapsed.
pub fn sleep(duration: Duration) -> Sleep {
    Sleep {
        deadline: Instant::now().checked_add(duration).unwrap_or_else(|| {
            // Saturate absurd durations ~30 years out.
            Instant::now() + Duration::from_secs(60 * 60 * 24 * 365 * 30)
        }),
        entry: None,
    }
}

/// Error returned by [`timeout`] when the deadline fires first.
#[derive(Debug, PartialEq, Eq)]
pub struct Elapsed(());

impl std::fmt::Display for Elapsed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline has elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Future returned by [`timeout`].
pub struct Timeout<F> {
    future: Pin<Box<F>>,
    sleep: Sleep,
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = &mut *self;
        if let Poll::Ready(v) = me.future.as_mut().poll(cx) {
            return Poll::Ready(Ok(v));
        }
        match Pin::new(&mut me.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed(()))),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// Races `future` against a deadline `duration` from now.
pub fn timeout<F: Future>(duration: Duration, future: F) -> Timeout<F> {
    Timeout {
        future: Box::pin(future),
        sleep: sleep(duration),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completed_timeouts_leave_no_timer_entries() {
        crate::block_on_sync(async {
            for _ in 0..10_000 {
                // The inner future is pending once, so the deadline is
                // registered before the timeout completes.
                timeout(Duration::from_secs(30), crate::task::yield_now())
                    .await
                    .unwrap();
            }
        });
        // Other tests in this binary may hold a few live timers.
        let left = timer::len();
        assert!(left < 50, "{left} timer entries left behind");
    }
}
