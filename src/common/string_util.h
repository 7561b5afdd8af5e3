// Copyright (c) PCQE contributors.
// Small string helpers used across modules (no external dependencies).

#ifndef PCQE_COMMON_STRING_UTIL_H_
#define PCQE_COMMON_STRING_UTIL_H_

#include <cstdarg>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace pcqe {

/// printf-style formatting into a `std::string`.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Concatenates `parts` by appends. Use it instead of an `operator+` chain
/// on temporaries: GCC 12 optimized builds report a false -Wrestrict on
/// `"literal" + std::string&&`.
std::string StrCat(std::initializer_list<std::string_view> parts);

/// Joins `parts` with `sep` ("a", "b" -> "a, b" for sep ", ").
std::string JoinStrings(const std::vector<std::string>& parts, std::string_view sep);

/// Lowercases ASCII characters; non-ASCII bytes pass through unchanged.
std::string ToLowerAscii(std::string_view s);

/// Uppercases ASCII characters; non-ASCII bytes pass through unchanged.
std::string ToUpperAscii(std::string_view s);

/// Case-insensitive ASCII equality, used for SQL keywords and identifiers.
bool EqualsIgnoreCaseAscii(std::string_view a, std::string_view b);

/// Strips leading and trailing ASCII whitespace.
std::string_view TrimAscii(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Formats a double compactly for human-facing tables: trims trailing zeros
/// ("0.0580" -> "0.058", "3.0" -> "3").
std::string FormatDouble(double v, int max_decimals = 6);

/// Escapes `s` for inclusion inside a JSON string literal: quotes,
/// backslashes and control characters (the latter as `\u00XX`).
std::string JsonEscape(std::string_view s);

}  // namespace pcqe

#endif  // PCQE_COMMON_STRING_UTIL_H_
