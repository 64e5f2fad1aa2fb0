// Status: the error-handling currency of the whole library.
//
// Follows the RocksDB/Arrow idiom: cheap to construct for OK, carries a
// code + message otherwise, and must be checked by the caller (we keep the
// interface minimal and rely on [[nodiscard]]).

#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

namespace socrates {

class [[nodiscard]] Status {
 public:
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound = 1,
    kCorruption = 2,
    kInvalidArgument = 3,
    kIOError = 4,
    kBusy = 5,
    kTimedOut = 6,
    kAborted = 7,         // transaction aborted (conflict, deadlock)
    kUnavailable = 8,     // service unreachable / failed over
    kNotSupported = 9,
    kOutOfSpace = 10,     // landing zone full, device full
    kShutdown = 11,       // service is stopping
    kOverloaded = 12,     // server shedding load; retry elsewhere / later
  };

  Status() noexcept : code_(Code::kOk) {}

  static Status OK() { return Status(); }
  static Status NotFound(std::string_view msg = "") {
    return Status(Code::kNotFound, msg);
  }
  static Status Corruption(std::string_view msg = "") {
    return Status(Code::kCorruption, msg);
  }
  static Status InvalidArgument(std::string_view msg = "") {
    return Status(Code::kInvalidArgument, msg);
  }
  static Status IOError(std::string_view msg = "") {
    return Status(Code::kIOError, msg);
  }
  static Status Busy(std::string_view msg = "") {
    return Status(Code::kBusy, msg);
  }
  static Status TimedOut(std::string_view msg = "") {
    return Status(Code::kTimedOut, msg);
  }
  static Status Aborted(std::string_view msg = "") {
    return Status(Code::kAborted, msg);
  }
  static Status Unavailable(std::string_view msg = "") {
    return Status(Code::kUnavailable, msg);
  }
  static Status NotSupported(std::string_view msg = "") {
    return Status(Code::kNotSupported, msg);
  }
  static Status OutOfSpace(std::string_view msg = "") {
    return Status(Code::kOutOfSpace, msg);
  }
  static Status Shutdown(std::string_view msg = "") {
    return Status(Code::kShutdown, msg);
  }
  static Status Overloaded(std::string_view msg = "") {
    return Status(Code::kOverloaded, msg);
  }

  /// Status `code` with a copy of `msg` (a decoder's generic path).
  static Status FromCode(Code code, std::string_view msg) {
    return Status(code, msg);
  }
  /// As above, but `msg` lies inside `*owner` (say, a decoded wire
  /// frame): the status shares `owner` instead of copying the bytes, so
  /// making one allocates nothing.
  static Status FromCode(Code code, std::string_view msg,
                         const std::shared_ptr<const std::string>& owner) {
    Status s;
    s.code_ = code;
    if (!msg.empty()) {
      s.len_ = static_cast<uint32_t>(msg.size());
      s.msg_ = std::shared_ptr<const char>(owner, msg.data());
    }
    return s;
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsOutOfSpace() const { return code_ == Code::kOutOfSpace; }
  bool IsShutdown() const { return code_ == Code::kShutdown; }
  bool IsOverloaded() const { return code_ == Code::kOverloaded; }

  Code code() const { return code_; }
  std::string_view message() const {
    return std::string_view(msg_.get(), len_);
  }

  /// Human-readable "<code>: <message>" string for logs and test output.
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  // The message is immutable and refcounted: copying a Status (it travels
  // through every layer of an error path by value) bumps a refcount
  // instead of duplicating the bytes. Empty messages carry a null
  // pointer, so OK statuses stay allocation-free; a message costs one
  // allocation, or none when borrowed from its owner.
  Status(Code code, std::string_view msg)
      : code_(code), len_(static_cast<uint32_t>(msg.size())) {
    if (msg.empty()) return;
    std::shared_ptr<char[]> bytes =
        std::make_shared_for_overwrite<char[]>(msg.size());
    char* data = bytes.get();
    std::memcpy(data, msg.data(), msg.size());
    msg_ = std::shared_ptr<const char>(std::move(bytes), data);
  }

  Code code_;
  uint32_t len_ = 0;
  std::shared_ptr<const char> msg_;
};

/// Propagate a non-OK Status to the caller (RocksDB idiom).
#define SOCRATES_RETURN_IF_ERROR(expr)          \
  do {                                          \
    ::socrates::Status _st = (expr);            \
    if (!_st.ok()) return _st;                  \
  } while (0)

/// Coroutine variant: co_return the error. Also usable in coroutines
/// returning Task<Result<T>> (Result is constructible from Status).
#define SOCRATES_CO_RETURN_IF_ERROR(expr)       \
  do {                                          \
    ::socrates::Status _st = (expr);            \
    if (!_st.ok()) co_return _st;               \
  } while (0)

}  // namespace socrates
