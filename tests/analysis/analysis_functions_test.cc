#include "analysis/functions.h"

#include <string>

#include <gtest/gtest.h>

#include "analysis/lexer.h"

namespace piggyweb::analysis {
namespace {

SourceFile make_file(std::string text) {
  SourceFile file;
  file.path = "src/core/fixture.cc";
  file.text = std::move(text);
  file.tokens = lex(file.text);
  return file;
}

TEST(AnalysisFunctions, FreeFunctionWithParams) {
  const auto file = make_file(
      "namespace piggyweb {\n"
      "int add(int lhs, int rhs) { return lhs + rhs; }\n"
      "}\n");
  const auto fns = scan_functions(file);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "add");
  EXPECT_EQ(fns[0].line, 2u);
  EXPECT_FALSE(fns[0].at_class_scope);
  ASSERT_EQ(fns[0].params.size(), 2u);
  EXPECT_EQ(fns[0].params[0].name, "lhs");
  EXPECT_EQ(fns[0].params[1].name, "rhs");
}

TEST(AnalysisFunctions, DeclarationsProduceNoEntry) {
  const auto file = make_file("int declared_only(int value);\n");
  EXPECT_TRUE(scan_functions(file).empty());
}

TEST(AnalysisFunctions, CallsAreNotDefinitions) {
  const auto file = make_file(
      "void caller() {\n"
      "  helper(1);\n"
      "  other.method(2);\n"
      "}\n");
  const auto fns = scan_functions(file);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "caller");
}

TEST(AnalysisFunctions, AccessSpecifiersTracked) {
  const auto file = make_file(
      "class Widget {\n"
      " public:\n"
      "  void visible(int index) { use(index); }\n"
      " private:\n"
      "  void hidden(int index) { use(index); }\n"
      "};\n"
      "struct Pod {\n"
      "  void open(int index) { use(index); }\n"
      "};\n");
  const auto fns = scan_functions(file);
  ASSERT_EQ(fns.size(), 3u);
  EXPECT_EQ(fns[0].name, "visible");
  EXPECT_TRUE(fns[0].is_public);
  EXPECT_TRUE(fns[0].at_class_scope);
  EXPECT_EQ(fns[1].name, "hidden");
  EXPECT_FALSE(fns[1].is_public);
  EXPECT_EQ(fns[2].name, "open");  // struct defaults to public
  EXPECT_TRUE(fns[2].is_public);
}

TEST(AnalysisFunctions, OutOfLineDefinitionAndCtorInitList) {
  const auto file = make_file(
      "Widget::Widget(int capacity)\n"
      "    : table_(capacity), label_{\"w\"} {\n"
      "  init();\n"
      "}\n"
      "int Widget::lookup(std::size_t slot) const noexcept {\n"
      "  return table_[slot];\n"
      "}\n");
  const auto fns = scan_functions(file);
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[0].name, "Widget");
  ASSERT_EQ(fns[0].params.size(), 1u);
  EXPECT_EQ(fns[0].params[0].name, "capacity");
  EXPECT_EQ(fns[1].name, "lookup");
  ASSERT_EQ(fns[1].params.size(), 1u);
  EXPECT_EQ(fns[1].params[0].name, "slot");
}

TEST(AnalysisFunctions, TrailingReturnTypeAndTemplates) {
  const auto file = make_file(
      "template <typename T>\n"
      "auto first_of(const std::vector<T>& items, std::size_t pos)\n"
      "    -> const T& {\n"
      "  return items[pos];\n"
      "}\n");
  const auto fns = scan_functions(file);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "first_of");
  ASSERT_EQ(fns[0].params.size(), 2u);
  EXPECT_EQ(fns[0].params[0].name, "items");
  EXPECT_EQ(fns[0].params[1].name, "pos");
}

TEST(AnalysisFunctions, UnnamedAndDefaultedParams) {
  const auto file = make_file(
      "void mixed(int, std::size_t count = compute(4), double rate) {\n"
      "  use(count, rate);\n"
      "}\n");
  const auto fns = scan_functions(file);
  ASSERT_EQ(fns.size(), 1u);
  ASSERT_EQ(fns[0].params.size(), 3u);
  EXPECT_EQ(fns[0].params[0].name, "");  // unnamed: lone type token
  EXPECT_EQ(fns[0].params[1].name, "count");  // default arg stripped
  EXPECT_EQ(fns[0].params[2].name, "rate");
}

TEST(AnalysisFunctions, LambdasStayInsideTheEnclosingBody) {
  const auto file = make_file(
      "void outer() {\n"
      "  auto f = [](int inner_pos) { return inner_pos; };\n"
      "  f(1);\n"
      "}\n");
  const auto fns = scan_functions(file);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "outer");
}

TEST(AnalysisFunctions, BodyRangeCoversTheBody) {
  const auto file = make_file("int f() { return 42; }\n");
  const auto fns = scan_functions(file);
  ASSERT_EQ(fns.size(), 1u);
  bool saw_return = false;
  for (std::size_t i = fns[0].body_begin; i < fns[0].body_end; ++i) {
    if (file.tokens[i].is_ident("return")) saw_return = true;
    EXPECT_FALSE(file.tokens[i].is_punct("{"));
  }
  EXPECT_TRUE(saw_return);
}

TEST(AnalysisFunctions, ClassPathTrackedOnFunctions) {
  const auto file = make_file(
      "class Outer {\n"
      "  struct Inner {\n"
      "    void poke() { touch(); }\n"
      "  };\n"
      "  void prod() { touch(); }\n"
      "};\n");
  const auto fns = scan_functions(file);
  ASSERT_EQ(fns.size(), 2u);
  EXPECT_EQ(fns[0].classes,
            (std::vector<std::string_view>{"Outer", "Inner"}));
  EXPECT_EQ(fns[1].classes, (std::vector<std::string_view>{"Outer"}));
}

TEST(AnalysisFunctions, OutOfLineQualifiersJoinTheClassPath) {
  const auto file = make_file(
      "void Outer::Inner::poke() { touch(); }\n");
  const auto fns = scan_functions(file);
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "poke");
  EXPECT_EQ(fns[0].classes,
            (std::vector<std::string_view>{"Outer", "Inner"}));
}

TEST(AnalysisFunctions, GuardedByAnnotationsCollected) {
  const auto file = make_file(
      "struct Counter {\n"
      "  std::mutex mutex;\n"
      "  long value PW_GUARDED_BY(mutex) = 0;\n"
      "  std::vector<int> items PW_GUARDED_BY(mutex);\n"
      "};\n");
  const auto scan = scan_file(file);
  ASSERT_EQ(scan.guarded_members.size(), 2u);
  EXPECT_EQ(scan.guarded_members[0].member, "value");
  EXPECT_EQ(scan.guarded_members[0].mutex, "mutex");
  EXPECT_EQ(scan.guarded_members[0].classes,
            (std::vector<std::string_view>{"Counter"}));
  EXPECT_EQ(scan.guarded_members[0].line, 3u);
  EXPECT_EQ(scan.guarded_members[1].member, "items");
}

TEST(AnalysisFunctions, MemberDeclsSeparateExemptTypes) {
  const auto file = make_file(
      "struct Stats {\n"
      "  std::mutex mutex;\n"
      "  std::atomic<long> hits;\n"
      "  long plain = 0;\n"
      "  static constexpr int kMax = 4;\n"
      "};\n");
  const auto scan = scan_file(file);
  ASSERT_EQ(scan.members.size(), 4u);
  EXPECT_EQ(scan.members[0].name, "mutex");
  EXPECT_TRUE(scan.members[0].type_exempt);
  EXPECT_EQ(scan.members[1].name, "hits");
  EXPECT_TRUE(scan.members[1].type_exempt);
  EXPECT_EQ(scan.members[2].name, "plain");
  EXPECT_FALSE(scan.members[2].type_exempt);
  EXPECT_EQ(scan.members[3].name, "kMax");
  EXPECT_TRUE(scan.members[3].type_exempt);
}

}  // namespace
}  // namespace piggyweb::analysis
