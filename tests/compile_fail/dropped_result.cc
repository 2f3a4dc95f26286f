// Must NOT compile: drops a Result<int>. Built on demand by
// CompileFail.DroppedResultIsRejected (tests/compile_fail_test.cc), which
// passes only when the compiler rejects the call under -Werror=unused-result.
#include "util/status.h"

namespace mc3 {

Result<int> MayCompute() { return 7; }

void DropsResult() { MayCompute(); }

}  // namespace mc3
