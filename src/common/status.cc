#include "common/status.h"

namespace socrates {

namespace {
const char* CodeName(Status::Code code) {
  switch (code) {
    case Status::Code::kOk: return "OK";
    case Status::Code::kNotFound: return "NotFound";
    case Status::Code::kCorruption: return "Corruption";
    case Status::Code::kInvalidArgument: return "InvalidArgument";
    case Status::Code::kIOError: return "IOError";
    case Status::Code::kBusy: return "Busy";
    case Status::Code::kTimedOut: return "TimedOut";
    case Status::Code::kAborted: return "Aborted";
    case Status::Code::kUnavailable: return "Unavailable";
    case Status::Code::kNotSupported: return "NotSupported";
    case Status::Code::kOutOfSpace: return "OutOfSpace";
    case Status::Code::kShutdown: return "Shutdown";
  }
  return "Unknown";
}
}  // namespace

std::string Status::ToString() const {
  std::string out = CodeName(code_);
  if (len_ > 0) {
    out += ": ";
    out += message();
  }
  return out;
}

}  // namespace socrates
