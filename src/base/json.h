// JSON rendering helpers shared by every dump writer (BENCH/PROF/FDR/
// TRACEREQ/TS/TELEMETRY): one string escaper, one number formatter.

#ifndef AMBER_SRC_BASE_JSON_H_
#define AMBER_SRC_BASE_JSON_H_

#include <string>
#include <string_view>

namespace amber {

// `s` escaped for a JSON string body: `"` and `\` are backslashed, \n \t \r
// spelled out, and every other control character emitted as \u00XX.
std::string JsonEscape(std::string_view s);

// JsonEscape(s) wrapped in double quotes.
std::string JsonQuote(std::string_view s);

// Integral values print without a fraction, so counter sums and nanosecond
// timestamps stay exact; other finite values print %.9g; inf and nan print 0
// (JSON has neither). A deterministic function of the value's bit pattern.
std::string JsonNumber(double v);

}  // namespace amber

#endif  // AMBER_SRC_BASE_JSON_H_
