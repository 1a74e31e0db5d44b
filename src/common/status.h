// Status / Result<T>: error propagation for fallible operations without
// exceptions (Arrow/RocksDB idiom). Library code returns Status or Result<T>;
// programming errors use QCORE_CHECK from check.h.
#ifndef QCORE_COMMON_STATUS_H_
#define QCORE_COMMON_STATUS_H_

#include <optional>
#include <string>
#include <utility>

#include "common/check.h"

namespace qcore {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kIoError,
  kFailedPrecondition,
  kOutOfRange,
  kCorruption,
  kUnimplemented,
  // A bounded resource (e.g. a serving queue) is full; retry later. The
  // load-shedding fast-fail code — callers distinguish it from hard errors.
  kResourceExhausted,
  // The request's latency budget expired before the work ran (deadline
  // shedding at batch-flush/exec time, serving/overload.h). Unlike
  // kResourceExhausted the request WAS admitted — retrying is pointless
  // unless the caller extends the budget.
  kDeadlineExceeded,
};

// The highest StatusCode; decoders reject anything above it.
constexpr StatusCode kMaxStatusCode = StatusCode::kDeadlineExceeded;

// Human-readable name of a status code, e.g. "InvalidArgument".
const char* StatusCodeName(StatusCode code);

// [[nodiscard]] at class level: a dropped Status is a swallowed error —
// every call site must check it, pass it on, or say why not (assign to an
// explicitly unused local). Same for Result<T> below.
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

// Value-or-error. Accessing value() on an error Result aborts.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : status_(Status::OK()), value_(std::move(value)) {}  // NOLINT
  Result(Status status) : status_(std::move(status)) {                 // NOLINT
    QCORE_CHECK_MSG(!status_.ok(), "Result constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    QCORE_CHECK_MSG(ok(), "Result::value() on error");
    return *value_;
  }
  T& value() & {
    QCORE_CHECK_MSG(ok(), "Result::value() on error");
    return *value_;
  }
  T&& value() && {
    QCORE_CHECK_MSG(ok(), "Result::value() on error");
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;  // engaged iff status_.ok()
};

#define QCORE_RETURN_NOT_OK(expr)             \
  do {                                        \
    ::qcore::Status _st = (expr);             \
    if (!_st.ok()) return _st;                \
  } while (0)

}  // namespace qcore

#endif  // QCORE_COMMON_STATUS_H_
