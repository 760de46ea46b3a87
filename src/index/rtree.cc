#include "src/index/rtree.h"

namespace yask {

// The plain spatial R-tree instantiation. The SetR-tree variant is
// instantiated in its own translation unit.
template class RTreeT<EmptySummary>;

}  // namespace yask
