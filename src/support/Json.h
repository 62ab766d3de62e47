//===- Json.h - Minimal JSON document reader ---------------------*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON reader for the telemetry artifacts ANEK
/// itself emits (`anek-trace-v1`, `anek-metrics-v1`): `anek report`
/// digests a run's artifacts back into a profile, and tests verify
/// exporter output structurally instead of by substring.
///
/// This is a reader for trusted-ish local files, not a validator: it
/// accepts exactly the JSON grammar (objects, arrays, strings with the
/// standard escapes, numbers, true/false/null), fails closed on anything
/// else, and never recurses deeper than a fixed bound so a pathological
/// file cannot blow the stack.
///
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_JSON_H
#define ANEK_SUPPORT_JSON_H

#include <map>
#include <string>
#include <vector>

namespace anek {
namespace json {

/// One parsed JSON value. Lookup helpers return a shared Null value for
/// missing keys, so chained reads of optional fields need no existence
/// checks.
struct Value {
  enum Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Null;
  bool B = false;
  double N = 0.0;
  std::string S;
  std::vector<Value> Items;
  std::map<std::string, Value> Fields;

  bool isNull() const { return K == Null; }
  bool has(const std::string &Key) const { return Fields.count(Key) != 0; }
  /// Object member by key; the Null value when absent or not an object.
  const Value &at(const std::string &Key) const;
  /// The number when K == Number, else \p Fallback.
  double num(double Fallback = 0.0) const {
    return K == Number ? N : Fallback;
  }
  /// The string when K == String, else \p Fallback.
  std::string str(const std::string &Fallback = std::string()) const {
    return K == String ? S : Fallback;
  }
};

/// Parses \p Text as one JSON document (surrounding whitespace allowed,
/// trailing garbage rejected). Returns false — with \p Error describing
/// the byte offset when non-null — on malformed input.
bool parse(const std::string &Text, Value &Out, std::string *Error = nullptr);

} // namespace json
} // namespace anek

#endif // ANEK_SUPPORT_JSON_H
