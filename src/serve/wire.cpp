#include "serve/wire.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include <unistd.h>

#include "smc/json.hpp"

namespace ppde::serve {

namespace {

[[noreturn]] void io_error(const char* what) {
  throw std::runtime_error(std::string("serve wire: ") + what + ": " +
                           std::strerror(errno));
}

void write_full(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_error("write");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Read exactly `size` bytes. Returns false on EOF before the first byte
/// (only meaningful at a frame boundary); throws on error or partial EOF.
bool read_full(int fd, char* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      io_error("read");
    }
    if (n == 0) {
      if (got == 0) return false;
      throw std::runtime_error("serve wire: EOF mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void write_frame(int fd, std::string_view payload) {
  if (payload.size() > kMaxFrameBytes)
    throw std::runtime_error("serve wire: frame too large to send");
  const std::uint32_t size = static_cast<std::uint32_t>(payload.size());
  char header[4] = {static_cast<char>(size >> 24),
                    static_cast<char>(size >> 16),
                    static_cast<char>(size >> 8), static_cast<char>(size)};
  write_full(fd, header, sizeof header);
  write_full(fd, payload.data(), payload.size());
}

bool read_frame(int fd, std::string& payload, std::size_t max_bytes) {
  unsigned char header[4];
  if (!read_full(fd, reinterpret_cast<char*>(header), sizeof header))
    return false;
  const std::uint32_t size = (std::uint32_t{header[0]} << 24) |
                             (std::uint32_t{header[1]} << 16) |
                             (std::uint32_t{header[2]} << 8) |
                             std::uint32_t{header[3]};
  if (size > max_bytes)
    throw std::runtime_error("serve wire: frame exceeds size limit");
  payload.resize(size);
  if (size > 0 && !read_full(fd, payload.data(), size))
    throw std::runtime_error("serve wire: EOF mid-frame");
  return true;
}

// ---------------------------------------------------------------------------
// JSON parsing.

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_spaces();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const char* what) {
    throw std::runtime_error("serve json: " + std::string(what) +
                             " at offset " + std::to_string(pos_));
  }

  void skip_spaces() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Json parse_value() {
    skip_spaces();
    switch (peek()) {
      case '{':
      case '[': {
        // Containers are the only recursion; bound it before descending.
        if (depth_ == kMaxJsonDepth) fail("nesting too deep");
        ++depth_;
        Json json = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return json;
      }
      case '"': return parse_string();
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json{};
      default: return parse_number();
    }
  }

  static Json make_bool(bool value) {
    Json json;
    json.kind_ = Json::Kind::kBool;
    json.bool_ = value;
    return json;
  }

  Json parse_object() {
    expect('{');
    Json json;
    json.kind_ = Json::Kind::kObject;
    skip_spaces();
    if (peek() == '}') {
      ++pos_;
      return json;
    }
    while (true) {
      skip_spaces();
      Json key = parse_string();
      skip_spaces();
      expect(':');
      json.members_.emplace_back(std::move(key.text_), parse_value());
      skip_spaces();
      const char c = peek();
      ++pos_;
      if (c == '}') return json;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json json;
    json.kind_ = Json::Kind::kArray;
    skip_spaces();
    if (peek() == ']') {
      ++pos_;
      return json;
    }
    while (true) {
      json.items_.push_back(parse_value());
      skip_spaces();
      const char c = peek();
      ++pos_;
      if (c == ']') return json;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  unsigned hex_digit(char c) {
    if (c >= '0' && c <= '9') return static_cast<unsigned>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<unsigned>(c - 'a' + 10);
    if (c >= 'A' && c <= 'F') return static_cast<unsigned>(c - 'A' + 10);
    fail("bad \\u escape");
  }

  Json parse_string() {
    expect('"');
    Json json;
    json.kind_ = Json::Kind::kString;
    std::string& out = json.text_;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return json;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i)
            code = code * 16 + hex_digit(text_[pos_++]);
          // UTF-8 encode the BMP codepoint (surrogate pairs are not used
          // by any peer in this protocol; encode the raw value).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-')
        ++pos_;
      else
        break;
    }
    if (pos_ == start) fail("expected a value");
    Json json;
    json.kind_ = Json::Kind::kNumber;
    json.text_.assign(text_.substr(start, pos_ - start));
    return json;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< open arrays/objects around pos_
};

Json Json::parse(std::string_view text) {
  return JsonParser(text).parse_document();
}

namespace {

[[noreturn]] void kind_error(const char* expected) {
  throw std::runtime_error(std::string("serve json: value is not ") +
                           expected);
}

}  // namespace

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) kind_error("a boolean");
  return bool_;
}

double Json::as_double() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  return std::strtod(text_.c_str(), nullptr);
}

std::uint64_t Json::as_u64() const {
  if (kind_ != Kind::kNumber) kind_error("a number");
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text_.c_str(), &end, 10);
  if (end == text_.c_str() || *end != '\0')
    throw std::runtime_error("serve json: number is not a u64: " + text_);
  return value;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString) kind_error("a string");
  return text_;
}

std::uint64_t Json::as_hex_u64() const {
  if (kind_ != Kind::kString) kind_error("a hex string");
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text_.c_str(), &end, 16);
  if (errno != 0 || end == text_.c_str() || *end != '\0')
    throw std::runtime_error("serve json: bad hex string: " + text_);
  return value;
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::kArray) kind_error("an array");
  return items_;
}

std::string Json::dump() const {
  std::string out;
  switch (kind_) {
    case Kind::kNull: out = "null"; break;
    case Kind::kBool: out = bool_ ? "true" : "false"; break;
    case Kind::kNumber: out = text_; break;  // raw token: exact round-trip
    case Kind::kString: smc::append_json_string(out, text_); break;
    case Kind::kArray: {
      out = "[";
      for (std::size_t i = 0; i < items_.size(); ++i) {
        if (i != 0) out += ',';
        out += items_[i].dump();
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out = "{";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        if (i != 0) out += ',';
        smc::append_json_string(out, members_[i].first);
        out += ':';
        out += members_[i].second.dump();
      }
      out += '}';
      break;
    }
  }
  return out;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_)
    if (name == key) return &value;
  return nullptr;
}

std::uint64_t Json::u64(std::string_view key, std::uint64_t fallback) const {
  const Json* member = find(key);
  return member != nullptr ? member->as_u64() : fallback;
}

double Json::dbl(std::string_view key, double fallback) const {
  const Json* member = find(key);
  return member != nullptr ? member->as_double() : fallback;
}

bool Json::boolean(std::string_view key, bool fallback) const {
  const Json* member = find(key);
  return member != nullptr ? member->as_bool() : fallback;
}

std::string Json::str(std::string_view key, std::string_view fallback) const {
  const Json* member = find(key);
  return member != nullptr ? member->as_string() : std::string(fallback);
}

}  // namespace ppde::serve
