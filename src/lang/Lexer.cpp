//===- Lexer.cpp - MiniJava lexer ------------------------------------------===//

#include "lang/Lexer.h"

#include "support/Metrics.h"
#include "support/Trace.h"

#include <cassert>
#include <cctype>
#include <unordered_map>

using namespace anek;

const char *anek::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::EndOfFile:
    return "end of file";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::StringLiteral:
    return "string literal";
  case TokenKind::KwClass:
    return "'class'";
  case TokenKind::KwInterface:
    return "'interface'";
  case TokenKind::KwExtends:
    return "'extends'";
  case TokenKind::KwImplements:
    return "'implements'";
  case TokenKind::KwStatic:
    return "'static'";
  case TokenKind::KwVoid:
    return "'void'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwBoolean:
    return "'boolean'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwNew:
    return "'new'";
  case TokenKind::KwThis:
    return "'this'";
  case TokenKind::KwTrue:
    return "'true'";
  case TokenKind::KwFalse:
    return "'false'";
  case TokenKind::KwNull:
    return "'null'";
  case TokenKind::KwAssert:
    return "'assert'";
  case TokenKind::KwSynchronized:
    return "'synchronized'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::At:
    return "'@'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::Not:
    return "'!'";
  case TokenKind::Lt:
    return "'<'";
  case TokenKind::Gt:
    return "'>'";
  case TokenKind::Le:
    return "'<='";
  case TokenKind::Ge:
    return "'>='";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'!='";
  case TokenKind::AndAnd:
    return "'&&'";
  case TokenKind::OrOr:
    return "'||'";
  }
  return "unknown";
}

static const std::unordered_map<std::string, TokenKind> &keywordTable() {
  static const std::unordered_map<std::string, TokenKind> Table = {
      {"class", TokenKind::KwClass},
      {"interface", TokenKind::KwInterface},
      {"extends", TokenKind::KwExtends},
      {"implements", TokenKind::KwImplements},
      {"static", TokenKind::KwStatic},
      {"void", TokenKind::KwVoid},
      {"int", TokenKind::KwInt},
      {"boolean", TokenKind::KwBoolean},
      {"if", TokenKind::KwIf},
      {"else", TokenKind::KwElse},
      {"while", TokenKind::KwWhile},
      {"return", TokenKind::KwReturn},
      {"new", TokenKind::KwNew},
      {"this", TokenKind::KwThis},
      {"true", TokenKind::KwTrue},
      {"false", TokenKind::KwFalse},
      {"null", TokenKind::KwNull},
      {"assert", TokenKind::KwAssert},
      {"synchronized", TokenKind::KwSynchronized},
  };
  return Table;
}

Lexer::Lexer(std::string Source, DiagnosticEngine &Diags)
    : Source(std::move(Source)), Diags(Diags) {}

char Lexer::peek(unsigned Ahead) const {
  return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
}

char Lexer::advance() {
  assert(!atEnd() && "advancing past end of buffer");
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Column = 1;
  } else {
    ++Column;
  }
  return C;
}

void Lexer::skipTrivia() {
  while (!atEnd()) {
    char C = peek();
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLocation Start = here();
      advance();
      advance();
      bool Closed = false;
      while (!atEnd()) {
        if (peek() == '*' && peek(1) == '/') {
          advance();
          advance();
          Closed = true;
          break;
        }
        advance();
      }
      if (!Closed)
        Diags.error(Start, "unterminated block comment");
      continue;
    }
    break;
  }
}

Token Lexer::lexToken() {
  if (telemetry::metering()) {
    static telemetry::Counter &Tokens =
        telemetry::counter("frontend.tokens");
    Tokens.add(1);
  }
  skipTrivia();
  Token Tok;
  Tok.Loc = here();
  if (atEnd()) {
    Tok.Kind = TokenKind::EndOfFile;
    return Tok;
  }

  char C = peek();
  if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
    std::string Text;
    while (!atEnd() && (std::isalnum(static_cast<unsigned char>(peek())) ||
                        peek() == '_'))
      Text += advance();
    auto It = keywordTable().find(Text);
    Tok.Kind = It != keywordTable().end() ? It->second : TokenKind::Identifier;
    Tok.Text = std::move(Text);
    return Tok;
  }

  if (std::isdigit(static_cast<unsigned char>(C))) {
    std::string Text;
    while (!atEnd() && std::isdigit(static_cast<unsigned char>(peek())))
      Text += advance();
    Tok.Kind = TokenKind::IntLiteral;
    Tok.Text = std::move(Text);
    return Tok;
  }

  if (C == '"') {
    advance();
    std::string Text;
    bool Closed = false;
    while (!atEnd()) {
      char D = advance();
      if (D == '"') {
        Closed = true;
        break;
      }
      if (D == '\\' && !atEnd()) {
        char E = advance();
        switch (E) {
        case 'n':
          Text += '\n';
          break;
        case 't':
          Text += '\t';
          break;
        default:
          Text += E;
          break;
        }
        continue;
      }
      Text += D;
    }
    if (!Closed)
      Diags.error(Tok.Loc, "unterminated string literal");
    Tok.Kind = TokenKind::StringLiteral;
    Tok.Text = std::move(Text);
    return Tok;
  }

  advance();
  switch (C) {
  case '{':
    Tok.Kind = TokenKind::LBrace;
    return Tok;
  case '}':
    Tok.Kind = TokenKind::RBrace;
    return Tok;
  case '(':
    Tok.Kind = TokenKind::LParen;
    return Tok;
  case ')':
    Tok.Kind = TokenKind::RParen;
    return Tok;
  case ';':
    Tok.Kind = TokenKind::Semi;
    return Tok;
  case ',':
    Tok.Kind = TokenKind::Comma;
    return Tok;
  case '.':
    Tok.Kind = TokenKind::Dot;
    return Tok;
  case '@':
    Tok.Kind = TokenKind::At;
    return Tok;
  case '+':
    Tok.Kind = TokenKind::Plus;
    return Tok;
  case '-':
    Tok.Kind = TokenKind::Minus;
    return Tok;
  case '*':
    Tok.Kind = TokenKind::Star;
    return Tok;
  case '/':
    Tok.Kind = TokenKind::Slash;
    return Tok;
  case '%':
    Tok.Kind = TokenKind::Percent;
    return Tok;
  case '=':
    if (peek() == '=') {
      advance();
      Tok.Kind = TokenKind::EqEq;
    } else {
      Tok.Kind = TokenKind::Assign;
    }
    return Tok;
  case '!':
    if (peek() == '=') {
      advance();
      Tok.Kind = TokenKind::NotEq;
    } else {
      Tok.Kind = TokenKind::Not;
    }
    return Tok;
  case '<':
    if (peek() == '=') {
      advance();
      Tok.Kind = TokenKind::Le;
    } else {
      Tok.Kind = TokenKind::Lt;
    }
    return Tok;
  case '>':
    if (peek() == '=') {
      advance();
      Tok.Kind = TokenKind::Ge;
    } else {
      Tok.Kind = TokenKind::Gt;
    }
    return Tok;
  case '&':
    if (peek() == '&') {
      advance();
      Tok.Kind = TokenKind::AndAnd;
      return Tok;
    }
    break;
  case '|':
    if (peek() == '|') {
      advance();
      Tok.Kind = TokenKind::OrOr;
      return Tok;
    }
    break;
  default:
    break;
  }
  Diags.error(Tok.Loc, std::string("unexpected character '") + C + "'");
  return lexToken();
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  while (true) {
    Tokens.push_back(lexToken());
    if (Tokens.back().is(TokenKind::EndOfFile))
      break;
  }
  return Tokens;
}
