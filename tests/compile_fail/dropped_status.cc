// Must NOT compile: drops a Status. Built on demand by
// CompileFail.DroppedStatusIsRejected (tests/compile_fail_test.cc), which
// passes only when the compiler rejects the call under -Werror=unused-result.
#include "util/status.h"

namespace mc3 {

Status MayFail() { return Status::OK(); }

void DropsStatus() { MayFail(); }

}  // namespace mc3
