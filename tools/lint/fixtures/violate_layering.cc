// Fixture: a library file (scoped as src/exp by the self-test) including a
// bench header. Benches call into src/, never the reverse. The directive is
// spelled "# include" (the rule matches any spacing) so that a plain grep
// for bench includes under tools/ stays empty.
# include "bench/common/table.h"
