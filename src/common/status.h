#ifndef HERMES_COMMON_STATUS_H_
#define HERMES_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace hermes {

/// Lightweight error-reporting type used across the library instead of
/// exceptions. Mirrors the shape of absl::Status but carries only the
/// pieces this project needs.
class Status {
 public:
  enum class Code {
    kOk = 0,
    kInvalidArgument,
    kNotFound,
    kAlreadyExists,
    kFailedPrecondition,
    kOutOfRange,
    kInternal,
    kAborted,
  };

  Status() : code_(Code::kOk) {}
  Status(Code code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(Code::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(Code::kFailedPrecondition, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(Code::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(Code::kInternal, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(Code::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "NOT_FOUND: key 42".
  std::string ToString() const;

 private:
  Code code_;
  std::string message_;
};

bool operator==(const Status& a, const Status& b);

/// What a config's Validate returns for a broken rule:
/// "<field> must <rule>, got <value>".
template <typename T>
Status InvalidField(const char* field, const char* rule, T value) {
  return Status::InvalidArgument(std::string(field) + " must " + rule +
                                 ", got " + std::to_string(value));
}

}  // namespace hermes

#endif  // HERMES_COMMON_STATUS_H_
