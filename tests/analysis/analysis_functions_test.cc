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

TEST(AnalysisFunctions, MemberFunctionsInClassBodies) {
  const auto file = make_file(
      "class Widget {\n"
      " public:\n"
      "  void visible(int index) { use(index); }\n"
      " private:\n"
      "  struct Inner {\n"
      "    void poke() { touch(); }\n"
      "  };\n"
      "  void hidden(int index) { use(index); }\n"
      "};\n");
  const auto fns = scan_functions(file);
  ASSERT_EQ(fns.size(), 3u);
  EXPECT_EQ(fns[0].name, "visible");
  EXPECT_EQ(fns[1].name, "poke");
  EXPECT_EQ(fns[1].line, 6u);
  EXPECT_EQ(fns[2].name, "hidden");
}

TEST(AnalysisFunctions, OutOfLineDefinitionAndCtorInitList) {
  const auto file = make_file(
      "Widget::Widget(int capacity)\n"
      "    : table_(capacity), label_{\"w\"} {\n"
      "  init();\n"
      "}\n"
      "int Widget::lookup(std::size_t slot) const noexcept {\n"
      "  return table_[slot];\n"
      "}\n"
      "void Outer::Inner::poke() { touch(); }\n");
  const auto fns = scan_functions(file);
  ASSERT_EQ(fns.size(), 3u);
  EXPECT_EQ(fns[0].name, "Widget");
  EXPECT_EQ(fns[0].line, 1u);
  EXPECT_EQ(fns[1].name, "lookup");
  EXPECT_EQ(fns[1].line, 5u);
  EXPECT_EQ(fns[2].name, "poke");
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
}

TEST(AnalysisFunctions, UnnamedAndDefaultedParams) {
  const auto file = make_file(
      "void mixed(int, std::size_t count = compute(4), double rate) {\n"
      "  use(count, rate);\n"
      "}\n");
  const auto fns = scan_functions(file);
  // The call in the default argument is not a definition.
  ASSERT_EQ(fns.size(), 1u);
  EXPECT_EQ(fns[0].name, "mixed");
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

}  // namespace
}  // namespace piggyweb::analysis
