//! The open-loop load generator: operations are due on a fixed schedule
//! whatever the system does, and each is timed from the instant it was
//! *due*, not the instant it was sent. A stalled operation therefore
//! charges its delay to every operation queued behind it — the wait a real
//! independent user would have seen — instead of silently thinning the load
//! (coordinated omission).

use std::time::{Duration, Instant};

/// Time as the generator sees it; the unit tests substitute a fake.
pub trait Clock {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Returns no earlier than `deadline` (at once if it has passed).
    fn sleep_until(&self, deadline: Duration);
}

/// The wall clock, counting from `origin` (and reading zero before it, so
/// threads can share an origin a little in the future).
pub struct WallClock(Instant);

impl WallClock {
    #[must_use]
    pub fn at(origin: Instant) -> Self {
        WallClock(origin)
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, deadline: Duration) {
        // Sleep most of the wait, then spin the last stretch: a bare
        // `sleep` overshoots by the timer slack, which at 80 ops/s would
        // show up as generator lateness in every sample.
        const SPIN: Duration = Duration::from_micros(150);
        loop {
            let now = self.now();
            if now >= deadline {
                return;
            }
            let left = deadline - now;
            if left > SPIN {
                std::thread::sleep(left - SPIN);
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// How late the generator started it, after its due time.
    pub late: Duration,
    /// Completion time minus due time.
    pub latency: Duration,
}

/// Runs one operation per entry of `due` (non-decreasing times on `clock`),
/// one at a time on the calling thread.
pub fn run_schedule(
    clock: &impl Clock,
    due: &[Duration],
    mut op: impl FnMut(usize),
) -> Vec<Sample> {
    due.iter()
        .enumerate()
        .map(|(i, &due)| {
            clock.sleep_until(due);
            let late = clock.now().saturating_sub(due);
            op(i);
            Sample {
                late,
                latency: clock.now().saturating_sub(due),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to.
    struct FakeClock(Cell<Duration>);

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.0.get()
        }
        fn sleep_until(&self, deadline: Duration) {
            self.0.set(self.0.get().max(deadline));
        }
    }

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_stall_is_charged_to_the_operations_queued_behind_it() {
        let clock = FakeClock(Cell::new(Duration::ZERO));
        // Due every 10 ms; each takes 1 ms, except number 2, which stalls
        // for 35 ms.
        let due: Vec<Duration> = (1..=8).map(|i| 10 * MS * i).collect();
        let samples = run_schedule(&clock, &due, |i| {
            let cost = if i == 2 { 35 * MS } else { MS };
            clock.0.set(clock.0.get() + cost);
        });
        let latency_ms: Vec<u128> = samples.iter().map(|s| s.latency.as_millis()).collect();
        let late_ms: Vec<u128> = samples.iter().map(|s| s.late.as_millis()).collect();
        // 2 is due at 30 and done at 65. 3 (due 40) starts at 65: 25 late,
        // done at 66. 4 (due 50): 16 late. 5 (due 60): 7 late. 6 (due 70) is
        // back on schedule.
        assert_eq!(latency_ms, [1, 1, 35, 26, 17, 8, 1, 1]);
        assert_eq!(late_ms, [0, 0, 0, 25, 16, 7, 0, 0]);
        // A closed loop would have reported 1 ms for all but one of them.
    }

    #[test]
    fn the_wall_clock_does_not_return_early() {
        let clock = WallClock::at(Instant::now());
        let deadline = clock.now() + 3 * MS;
        clock.sleep_until(deadline);
        assert!(clock.now() >= deadline);
    }
}
