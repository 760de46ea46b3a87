#include "src/query/query.h"

#include <cmath>
#include <cstdio>

namespace yask {

double Weights::DistanceTo(const Weights& other) const {
  const double ds = ws - other.ws;
  const double dt = wt - other.wt;
  return std::sqrt(ds * ds + dt * dt);
}

double Weights::PenaltyNormalizer() const {
  return std::sqrt(1.0 + ws * ws + wt * wt);
}

Status Query::Validate() const {
  // A non-finite coordinate has no distance to anything: it would reach
  // scoring as inf/NaN and the result-cache key as a distinct bit pattern.
  if (!std::isfinite(loc.x) || !std::isfinite(loc.y)) {
    return Status::InvalidArgument("query location must be finite");
  }
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (!(w.ws > 0.0 && w.ws < 1.0) || !(w.wt > 0.0 && w.wt < 1.0)) {
    return Status::InvalidArgument("weights must lie strictly in (0, 1)");
  }
  if (std::abs(w.ws + w.wt - 1.0) > 1e-9) {
    return Status::InvalidArgument("weights must satisfy ws + wt = 1");
  }
  if (doc.empty()) {
    return Status::InvalidArgument("query keyword set must be non-empty");
  }
  return Status::OK();
}

std::string Query::ToString(const Vocabulary& vocab) const {
  char head[128];
  std::snprintf(head, sizeof(head), "q(loc=(%.5g,%.5g), k=%u, ws=%.3f, doc=",
                loc.x, loc.y, k, w.ws);
  return std::string(head) + doc.ToString(vocab) + ")";
}

}  // namespace yask
