// Fixture: an annotated bench include (say, a shim kept while code moves
// into src/) passes with the allow-annotation and must be flagged again
// once it is stripped. Spelled "# include" as in violate_layering.cc.

// occamy-lint: allow(layering) shim removed once the move lands
# include "bench/common/table.h"
