// Retry with exponential backoff and deterministic jitter.
//
// A worker (src/coord) redialing a coordinator that is unreachable or
// restarting needs "try again, later, but not all at once".  This header
// is that policy: delays grow geometrically from `base_ms` up to `max_ms`,
// and an optional jitter fraction spreads a fleet's simultaneous retries
// apart.  (A lost shard's re-issue delay derives from the lease instead,
// coord::LeaseConfig, without jitter.)  Jitter is drawn from
// a caller-owned common::Rng, so a fixed seed yields a fixed delay sequence
// — fault-injection tests can predict every sleep.
#pragma once

/// \file
/// BackoffPolicy (exponential delays + deterministic jitter) and
/// retry_with_backoff.

#include <cstdint>
#include <functional>

#include "common/rng.h"

namespace ff::common {

/// Exponential-backoff schedule.  Attempt 0 waits `base_ms`, attempt k waits
/// `base_ms * factor^k`, capped at `max_ms`; the result is then spread by
/// ±`jitter` (a fraction of the delay) using the caller's Rng.  `max_ms` is
/// a hard ceiling — it binds after jitter as well.
struct BackoffPolicy {
    double base_ms = 100.0;  ///< Delay before the first retry.
    double factor = 2.0;     ///< Geometric growth per attempt.
    double max_ms = 5000.0;  ///< Delay ceiling.
    double jitter = 0.2;     ///< ± fraction of the delay; 0 disables jitter.

    /// Delay in milliseconds before retry `attempt` (0-based).  Pure in
    /// (policy, attempt, rng state): a fixed-seed Rng reproduces the exact
    /// sequence.
    double delay_ms(int attempt, Rng& rng) const;
};

/// Calls `fn` up to `max_attempts` times, invoking `sleep_ms` with the
/// policy's delay between failures.  Returns true as soon as `fn` does;
/// false when every attempt failed.  The sleeper is injected so tests (and
/// event loops) can wait without blocking a real clock.
bool retry_with_backoff(int max_attempts, const BackoffPolicy& policy, Rng& rng,
                        const std::function<bool()>& fn,
                        const std::function<void(double)>& sleep_ms);

}  // namespace ff::common
