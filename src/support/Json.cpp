//===- Json.cpp - Minimal JSON document reader ------------------------------===//
//
// Part of the ANEK reproduction. See README.md.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cctype>
#include <cstdlib>
#include <cstring>

using namespace anek;
using namespace anek::json;

const Value &Value::at(const std::string &Key) const {
  static const Value Missing;
  auto It = Fields.find(Key);
  return It == Fields.end() ? Missing : It->second;
}

namespace {

/// Deep documents are not something our exporters produce; a fixed bound
/// keeps hostile nesting from exhausting the stack.
constexpr unsigned MaxDepth = 64;

class Parser {
public:
  explicit Parser(const std::string &Text) : Text(Text) {}

  bool parse(Value &Out, std::string *Error) {
    Pos = 0;
    if (!value(Out, 0))
      return fail(Error);
    skipWs();
    if (Pos != Text.size()) // No trailing garbage.
      return fail(Error);
    return true;
  }

private:
  const std::string &Text;
  size_t Pos = 0;

  bool fail(std::string *Error) const {
    if (Error)
      *Error = "malformed JSON at byte " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (Text.compare(Pos, Len, Word) != 0)
      return false;
    Pos += Len;
    return true;
  }

  bool value(Value &Out, unsigned Depth) {
    if (Depth > MaxDepth)
      return false;
    skipWs();
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return object(Out, Depth);
    case '[':
      return array(Out, Depth);
    case '"':
      Out.K = Value::String;
      return string(Out.S);
    case 't':
      Out.K = Value::Bool;
      Out.B = true;
      return literal("true");
    case 'f':
      Out.K = Value::Bool;
      Out.B = false;
      return literal("false");
    case 'n':
      Out.K = Value::Null;
      return literal("null");
    default:
      return number(Out);
    }
  }

  bool object(Value &Out, unsigned Depth) {
    Out.K = Value::Object;
    ++Pos; // '{'
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    while (true) {
      skipWs();
      std::string Key;
      if (!string(Key))
        return false;
      skipWs();
      if (Pos >= Text.size() || Text[Pos] != ':')
        return false;
      ++Pos;
      Value Val;
      if (!value(Val, Depth + 1))
        return false;
      Out.Fields.emplace(std::move(Key), std::move(Val));
      skipWs();
      if (Pos >= Text.size())
        return false;
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool array(Value &Out, unsigned Depth) {
    Out.K = Value::Array;
    ++Pos; // '['
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    while (true) {
      Value Val;
      if (!value(Val, Depth + 1))
        return false;
      Out.Items.push_back(std::move(Val));
      skipWs();
      if (Pos >= Text.size())
        return false;
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return false;
    }
  }

  bool hex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return false;
    Out = 0;
    for (int I = 0; I != 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<unsigned>(C - 'A' + 10);
      else
        return false;
    }
    return true;
  }

  void appendUtf8(std::string &Out, unsigned Cp) {
    if (Cp < 0x80) {
      Out += static_cast<char>(Cp);
    } else if (Cp < 0x800) {
      Out += static_cast<char>(0xC0 | (Cp >> 6));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    } else {
      Out += static_cast<char>(0xE0 | (Cp >> 12));
      Out += static_cast<char>(0x80 | ((Cp >> 6) & 0x3F));
      Out += static_cast<char>(0x80 | (Cp & 0x3F));
    }
  }

  bool string(std::string &Out) {
    if (Pos >= Text.size() || Text[Pos] != '"')
      return false;
    ++Pos;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos];
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C == '\\') {
        ++Pos;
        if (Pos >= Text.size())
          return false;
        char E = Text[Pos++];
        switch (E) {
        case '"':
        case '\\':
        case '/':
          Out += E;
          break;
        case 'b':
          Out += '\b';
          break;
        case 'f':
          Out += '\f';
          break;
        case 'n':
          Out += '\n';
          break;
        case 'r':
          Out += '\r';
          break;
        case 't':
          Out += '\t';
          break;
        case 'u': {
          // BMP codepoints only: our own emitters never produce
          // surrogate pairs, and a lone surrogate degrades to itself.
          unsigned Cp = 0;
          if (!hex4(Cp))
            return false;
          appendUtf8(Out, Cp);
          break;
        }
        default:
          return false;
        }
        continue;
      }
      // RFC 8259: control characters must be escaped inside strings.
      if (static_cast<unsigned char>(C) < 0x20)
        return false;
      Out += C;
      ++Pos;
    }
    return false; // Unterminated.
  }

  bool number(Value &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return false;
    std::string Token = Text.substr(Start, Pos - Start);
    char *End = nullptr;
    Out.K = Value::Number;
    Out.N = std::strtod(Token.c_str(), &End);
    return End && *End == '\0';
  }
};

} // namespace

bool anek::json::parse(const std::string &Text, Value &Out,
                       std::string *Error) {
  Parser P(Text);
  return P.parse(Out, Error);
}
