//===- Status.cpp - Structured error propagation ---------------------------===//

#include "support/Status.h"

using namespace anek;

const char *anek::errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::Ok:
    return "ok";
  case ErrorCode::InvalidArgument:
    return "invalid-argument";
  case ErrorCode::ResourceExhausted:
    return "resource-exhausted";
  case ErrorCode::Unsatisfiable:
    return "unsatisfiable";
  case ErrorCode::FaultInjected:
    return "fault-injected";
  case ErrorCode::Internal:
    return "internal";
  }
  return "unknown";
}

std::string Status::str() const {
  if (isOk())
    return "ok";
  std::string Out = errorCodeName(Code);
  if (!Message.empty()) {
    Out += ": ";
    Out += Message;
  }
  return Out;
}
