#include "common/retry.h"

#include <algorithm>
#include <cmath>

namespace ff::common {

double BackoffPolicy::delay_ms(int attempt, Rng& rng) const {
    const double exponent = std::max(attempt, 0);
    double delay = base_ms * std::pow(std::max(factor, 1.0), exponent);
    delay = std::min(delay, max_ms);
    if (jitter > 0.0) {
        const double spread = std::clamp(jitter, 0.0, 1.0);
        delay *= rng.uniform_double(1.0 - spread, 1.0 + spread);
    }
    // max_ms is a hard ceiling, jitter included: upward jitter on a
    // capped delay must not overshoot it, or a fleet's worst-case
    // reconnect stretches past what the lease deadlines were sized for.
    return std::clamp(delay, 0.0, max_ms);
}

bool retry_with_backoff(int max_attempts, const BackoffPolicy& policy, Rng& rng,
                        const std::function<bool()>& fn,
                        const std::function<void(double)>& sleep_ms) {
    for (int attempt = 0; attempt < max_attempts; ++attempt) {
        if (fn()) return true;
        if (attempt + 1 < max_attempts) sleep_ms(policy.delay_ms(attempt, rng));
    }
    return false;
}

}  // namespace ff::common
