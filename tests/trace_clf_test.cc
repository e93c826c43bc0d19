#include "trace/clf.h"

#include <algorithm>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace piggyweb::trace {
namespace {

constexpr std::string_view kLine =
    "ppp-12.isp.net - - [10/Oct/1998:13:55:36 +0000] "
    "\"GET /dir/page.html HTTP/1.0\" 200 2326";

TEST(ClfDate, ParsesUtc) {
  std::int64_t out = 0;
  ASSERT_TRUE(parse_clf_date("10/Oct/1998:13:55:36 +0000", out));
  // 10 Oct 1998 = day 10509; 13:55:36 = 50136 s.
  EXPECT_EQ(out, 10509 * 86400 + 50136);
}

TEST(ClfDate, AppliesZoneOffset) {
  std::int64_t utc = 0, west = 0;
  ASSERT_TRUE(parse_clf_date("10/Oct/1998:13:55:36 +0000", utc));
  ASSERT_TRUE(parse_clf_date("10/Oct/1998:06:55:36 -0700", west));
  EXPECT_EQ(utc, west);
}

TEST(ClfDate, RejectsMalformed) {
  std::int64_t out = 0;
  EXPECT_FALSE(parse_clf_date("1998-10-10 13:55:36", out));
  EXPECT_FALSE(parse_clf_date("10/Foo/1998:13:55:36 +0000", out));
  EXPECT_FALSE(parse_clf_date("99/Oct/1998:13:55:36 +0000", out));
  EXPECT_FALSE(parse_clf_date("10/Oct/1998:25:55:36 +0000", out));
  EXPECT_FALSE(parse_clf_date("", out));
}

TEST(ClfDate, FormatParsesBack) {
  const std::int64_t ts = 10509 * 86400 + 50136;
  std::int64_t round = 0;
  ASSERT_TRUE(parse_clf_date(format_clf_date(ts), round));
  EXPECT_EQ(round, ts);
}

TEST(ClfLine, ParsesAllFields) {
  const auto entry = parse_clf_line(kLine);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->host, "ppp-12.isp.net");
  EXPECT_EQ(entry->method, Method::kGet);
  EXPECT_EQ(entry->path, "/dir/page.html");
  EXPECT_EQ(entry->status, 200);
  EXPECT_EQ(entry->size, 2326u);
}

TEST(ClfLine, DashSizeMeansZero) {
  const auto entry = parse_clf_line(
      "h - - [10/Oct/1998:13:55:36 +0000] \"GET /x HTTP/1.0\" 304 -");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->status, 304);
  EXPECT_EQ(entry->size, 0u);
}

TEST(ClfLine, NormalizesAbsoluteUrl) {
  const auto entry = parse_clf_line(
      "h - - [10/Oct/1998:13:55:36 +0000] "
      "\"GET http://www.foo.com/a/b.html HTTP/1.0\" 200 10");
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->path, "/a/b.html");
}

TEST(ClfLine, RejectsGarbage) {
  EXPECT_FALSE(parse_clf_line("").has_value());
  EXPECT_FALSE(parse_clf_line("not a log line").has_value());
  EXPECT_FALSE(parse_clf_line(
                   "h - - [bad date] \"GET /x HTTP/1.0\" 200 1")
                   .has_value());
  EXPECT_FALSE(parse_clf_line(
                   "h - - [10/Oct/1998:13:55:36 +0000] \"PUT /x HTTP/1.0\" "
                   "200 1")
                   .has_value());
  EXPECT_FALSE(parse_clf_line(
                   "h - - [10/Oct/1998:13:55:36 +0000] \"GET /x HTTP/1.0\" "
                   "abc 1")
                   .has_value());
}

TEST(ClfLine, RoundTripThroughFormat) {
  const auto entry = parse_clf_line(kLine);
  ASSERT_TRUE(entry.has_value());
  const auto again = parse_clf_line(format_clf_line(*entry));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->host, entry->host);
  EXPECT_EQ(again->time.value, entry->time.value);
  EXPECT_EQ(again->path, entry->path);
  EXPECT_EQ(again->status, entry->status);
  EXPECT_EQ(again->size, entry->size);
}

TEST(Uncachable, MatchesPaperRules) {
  EXPECT_TRUE(is_uncachable_url("/cgi-bin/search"));
  EXPECT_TRUE(is_uncachable_url("/find?q=x"));
  EXPECT_FALSE(is_uncachable_url("/static/page.html"));
}

TEST(LoadClf, FiltersAndCounts) {
  const std::string_view text(
      "h1 - - [10/Oct/1998:13:55:36 +0000] \"GET /a.html HTTP/1.0\" 200 10\n"
      "h2 - - [10/Oct/1998:13:55:40 +0000] \"GET /cgi-bin/x HTTP/1.0\" 200 "
      "5\n"
      "garbage line\n"
      "h1 - - [10/Oct/1998:13:56:00 +0000] \"POST /b HTTP/1.0\" 200 7\n");
  Trace trace;
  ClfLoadOptions options;
  options.server_name = "svr";
  const auto result = load_clf_text(text, trace, options);
  EXPECT_EQ(result.parsed, 2u);
  EXPECT_EQ(result.skipped_filtered, 1u);  // the cgi line
  EXPECT_EQ(result.skipped_malformed, 1u);
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.servers().str(trace.requests()[0].server), "svr");
}

TEST(LoadClf, DropPostOption) {
  const std::string_view text(
      "h1 - - [10/Oct/1998:13:55:36 +0000] \"POST /b HTTP/1.0\" 200 7\n");
  Trace trace;
  ClfLoadOptions options;
  options.drop_post = true;
  const auto result = load_clf_text(text, trace, options);
  EXPECT_EQ(result.parsed, 0u);
  EXPECT_EQ(result.skipped_filtered, 1u);
}

TEST(WriteClf, RoundTripsThroughLoad) {
  Trace original;
  original.add({875000000}, "c1", "svr", "/a/b.html", Method::kGet, 200, 99);
  original.add({875000100}, "c2", "svr", "/c.gif", Method::kGet, 304, 0);
  std::ostringstream out;
  const auto loss = write_clf(out, original);
  EXPECT_EQ(loss.servers, 0u);  // one server: the reader names it again
  EXPECT_EQ(loss.last_modified, 0u);

  Trace loaded;
  ClfLoadOptions options;
  options.server_name = "svr";
  const auto result = load_clf_text(out.str(), loaded, options);
  EXPECT_EQ(result.parsed, 2u);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.requests()[0].time.value, 875000000);
  EXPECT_EQ(loaded.paths().str(loaded.requests()[0].path), "/a/b.html");
  EXPECT_EQ(loaded.requests()[1].status, 304);
}

TEST(WriteClf, ReportsWhatTheLinesCannotHold) {
  Trace original;
  original.add({875000000}, "c1", "a.com", "/x", Method::kGet, 200, 9, 100);
  original.add({875000001}, "c1", "b.com", "/x", Method::kGet, 200, 9);
  original.add({875000002}, "c2", "a.com", "/y", Method::kGet, 200, 9, 200);
  std::ostringstream out;
  const auto loss = write_clf(out, original);
  EXPECT_EQ(loss.servers, 2u);
  EXPECT_EQ(loss.last_modified, 2u);
  const auto text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

// ---------------------------------------------------------------------------
// Wide (SSE2/SWAR) vs scalar parse_clf_fields differential. The wide
// parser is the production path; the scalar one is the reference. They
// must agree — same accept/reject verdict and, on accept, identical
// fields — on every input, including malformed ones.

void expect_parsers_agree(std::string_view line) {
  ClfFields wide, scalar;
  const bool ok_wide = parse_clf_fields(line, wide);
  const bool ok_scalar = parse_clf_fields_scalar(line, scalar);
  ASSERT_EQ(ok_wide, ok_scalar) << "line: " << line;
  if (!ok_wide) return;
  EXPECT_EQ(wide.host, scalar.host) << "line: " << line;
  EXPECT_EQ(wide.time, scalar.time) << "line: " << line;
  EXPECT_EQ(wide.method, scalar.method) << "line: " << line;
  EXPECT_EQ(wide.path, scalar.path) << "line: " << line;
  EXPECT_EQ(wide.status, scalar.status) << "line: " << line;
  EXPECT_EQ(wide.size, scalar.size) << "line: " << line;
}

TEST(ParseClfFieldsDifferential, HandWrittenCases) {
  const std::string long_path =
      "/very" + std::string(300, 'x') + "/deep/path.html";
  const std::string_view cases[] = {
      kLine,
      // well-formed variants
      "h - - [10/Oct/1998:13:55:36 +0000] \"GET / HTTP/1.0\" 200 0",
      "h - - [10/Oct/1998:13:55:36 +0000] \"HEAD /a HTTP/1.0\" 304 -",
      "h - - [10/Oct/1998:13:55:36 +0000] \"POST /cgi-bin/x HTTP/1.0\" 500 1",
      "  h - - [10/Oct/1998:13:55:36 +0000] \"GET /pad HTTP/1.0\" 200 5  ",
      // quoted request line with extra spaces inside the quotes
      "h - - [10/Oct/1998:13:55:36 +0000] \"GET   /sp aced  HTTP/1.0\" 200 1",
      // malformed: truncations and missing delimiters
      "",
      " ",
      "h",
      "h - -",
      "h - - [10/Oct/1998:13:55:36 +0000]",
      "h - - [10/Oct/1998:13:55:36 +0000] \"GET",
      "h - - [10/Oct/1998:13:55:36 +0000] \"GET /a HTTP/1.0\"",
      "h - - [10/Oct/1998:13:55:36 +0000] \"GET /a HTTP/1.0\" abc 5",
      "h - - [10/Oct/1998:13:55:36 +0000] \"GET /a HTTP/1.0\" 2000 5",
      "h - - [not-a-date] \"GET /a HTTP/1.0\" 200 5",
      "h - - 10/Oct/1998:13:55:36 \"GET /a HTTP/1.0\" 200 5",
      "h - - [10/Oct/1998:13:55:36 +0000] GET /a HTTP/1.0 200 5",
      "h - - [10/Oct/1998:13:55:36 +0000] \"FROB /a HTTP/1.0\" 200 5",
      "h - - [10/Oct/1998:13:55:36 +0000] \"\" 200 5",
  };
  for (const auto line : cases) expect_parsers_agree(line);
  expect_parsers_agree("h - - [10/Oct/1998:13:55:36 +0000] \"GET " +
                       long_path + " HTTP/1.0\" 200 12345");
}

TEST(ParseClfFieldsDifferential, RandomizedMutations) {
  util::Rng rng(0xC1F);
  const std::string_view methods[] = {"GET", "POST", "HEAD", "FROB"};
  for (int round = 0; round < 3000; ++round) {
    // Compose a mostly-valid line with randomized pieces...
    std::string path = "/";
    const auto segments = rng.below(4);
    for (std::uint64_t s = 0; s <= segments; ++s) {
      path += 'd';
      path += std::to_string(rng.below(30));
      path += rng.chance(0.8) ? "/" : "";
    }
    if (rng.chance(0.1)) path += std::string(rng.below(400), 'q');
    std::string line = "host" + std::to_string(rng.below(9)) +
                       " - - [10/Oct/1998:13:55:36 +0000] \"" +
                       std::string(methods[rng.below(4)]) + " " + path +
                       " HTTP/1.0\" " + std::to_string(rng.below(1200)) +
                       " " + std::to_string(rng.below(100000));
    // ...then mutate it: truncate, damage a byte, or duplicate a chunk.
    const auto mutation = rng.below(5);
    if (mutation == 1 && !line.empty()) {
      line.resize(rng.below(line.size() + 1));
    } else if (mutation == 2 && !line.empty()) {
      const auto at = rng.below(line.size());
      line[at] = static_cast<char>(rng.below(256));
    } else if (mutation == 3) {
      const auto at = rng.below(line.size() + 1);
      line.insert(at, rng.chance(0.5) ? "\"" : "]");
    }
    expect_parsers_agree(line);
  }
}

}  // namespace
}  // namespace piggyweb::trace
