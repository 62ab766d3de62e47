//===- StringUtils.cpp - Common string predicates and splitters ----------===//

#include "support/StringUtils.h"

#include <cctype>

using namespace anek;

bool anek::startsWith(const std::string &S, const std::string &Prefix) {
  return S.size() >= Prefix.size() &&
         S.compare(0, Prefix.size(), Prefix) == 0;
}

bool anek::endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

std::string anek::trim(const std::string &S) {
  size_t Begin = 0, End = S.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(S[Begin])))
    ++Begin;
  while (End > Begin && std::isspace(static_cast<unsigned char>(S[End - 1])))
    --End;
  return S.substr(Begin, End - Begin);
}

std::vector<std::string> anek::splitAndTrim(const std::string &S, char Sep) {
  std::vector<std::string> Result;
  size_t Start = 0;
  while (Start <= S.size()) {
    size_t Pos = S.find(Sep, Start);
    if (Pos == std::string::npos)
      Pos = S.size();
    std::string Piece = trim(S.substr(Start, Pos - Start));
    if (!Piece.empty())
      Result.push_back(std::move(Piece));
    Start = Pos + 1;
  }
  return Result;
}

std::string anek::join(const std::vector<std::string> &Parts,
                       const std::string &Sep) {
  std::string Result;
  for (size_t I = 0, E = Parts.size(); I != E; ++I) {
    if (I != 0)
      Result += Sep;
    Result += Parts[I];
  }
  return Result;
}
