// Status / Result<T>: lightweight error propagation without exceptions,
// following the RocksDB / Arrow idiom. Library entry points that can fail on
// user input return Status (or Result<T>); programming errors are asserted.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace mc3 {

/// Error categories used across the library.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,   ///< malformed input (e.g. empty query, negative cost)
  kInfeasible,        ///< no finite-cost solution exists
  kNotFound,          ///< missing file / missing key
  kIOError,           ///< filesystem or parse failure
  kInternal,          ///< invariant violation surfaced as an error
};

/// Outcome of a fallible operation: a code plus a human-readable message.
/// [[nodiscard]], with -Werror=unused-result in every build, makes a dropped
/// Status a compile error: a dropped Status is a swallowed error.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Renders "OK" or "<category>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string msg)
      : code_(code), message_(std::move(msg)) {}

  StatusCode code_;
  std::string message_;
};

/// Result<T> holds either a value or an error Status.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from a non-OK status (failure).
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result(Status) requires an error status");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Value accessors; must only be called when ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }
  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace mc3

/// Propagates a non-OK Status to the caller.
#define MC3_RETURN_IF_ERROR(expr)          \
  do {                                     \
    ::mc3::Status _st = (expr);            \
    if (!_st.ok()) return _st;             \
  } while (0)

