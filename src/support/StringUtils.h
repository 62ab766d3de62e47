//===- StringUtils.h - Common string predicates and splitters ---*- C++ -*-===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#ifndef ANEK_SUPPORT_STRINGUTILS_H
#define ANEK_SUPPORT_STRINGUTILS_H

#include <string>
#include <vector>

namespace anek {

/// Returns true if \p S starts with \p Prefix.
bool startsWith(const std::string &S, const std::string &Prefix);

/// Returns true if \p S ends with \p Suffix.
bool endsWith(const std::string &S, const std::string &Suffix);

/// Splits \p S on \p Sep, trimming surrounding whitespace from each piece.
/// Empty pieces are dropped.
std::vector<std::string> splitAndTrim(const std::string &S, char Sep);

/// Removes leading and trailing ASCII whitespace.
std::string trim(const std::string &S);

/// Joins \p Parts with \p Sep between elements.
std::string join(const std::vector<std::string> &Parts,
                 const std::string &Sep);

} // namespace anek

#endif // ANEK_SUPPORT_STRINGUTILS_H
