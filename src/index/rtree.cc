#include "src/index/rtree.h"

namespace yask {

// The plain spatial R-tree instantiation, the served index. The baselines'
// summarised variants are instantiated with them, in bench/baselines/.
template class RTreeT<EmptySummary>;

}  // namespace yask
