#include "common/strings.h"

#include <gtest/gtest.h>

#include <ostream>

namespace qc {
namespace {

TEST(ToUpper, Basics) {
  EXPECT_EQ(ToUpper("select"), "SELECT");
  EXPECT_EQ(ToUpper("MiXeD_09"), "MIXED_09");
  EXPECT_EQ(ToUpper(""), "");
}

struct LikeCase {
  const char* text;
  const char* pattern;
  bool match;
};

// Names each case after its strings rather than gtest's default byte dump,
// which would embed pointer values and so change from run to run.
void PrintTo(const LikeCase& c, std::ostream* os) {
  *os << "'" << c.text << "' LIKE '" << c.pattern << "' -> " << (c.match ? "match" : "no match");
}

class LikeMatchTest : public ::testing::TestWithParam<LikeCase> {};

TEST_P(LikeMatchTest, Matches) {
  const LikeCase& c = GetParam();
  EXPECT_EQ(LikeMatch(c.text, c.pattern), c.match)
      << "text='" << c.text << "' pattern='" << c.pattern << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LikeMatchTest,
    ::testing::Values(
        // exact
        LikeCase{"ready", "ready", true}, LikeCase{"ready", "Ready", false},
        LikeCase{"", "", true}, LikeCase{"a", "", false},
        // percent
        LikeCase{"customerLevel", "%", true}, LikeCase{"", "%", true},
        LikeCase{"abcdef", "abc%", true}, LikeCase{"abcdef", "%def", true},
        LikeCase{"abcdef", "%cd%", true}, LikeCase{"abcdef", "%x%", false},
        LikeCase{"abcdef", "a%f", true}, LikeCase{"abcdef", "a%x", false},
        LikeCase{"aaa", "%a", true}, LikeCase{"aaa", "a%a%a", true},
        LikeCase{"aaa", "a%a%a%a", false},
        // underscore
        LikeCase{"abc", "a_c", true}, LikeCase{"abc", "___", true},
        LikeCase{"abc", "__", false}, LikeCase{"abc", "____", false},
        LikeCase{"abc", "_b_", true},
        // mixed
        LikeCase{"classifier", "class%r", true}, LikeCase{"classifier", "c_ass%", true},
        LikeCase{"promotion", "%o_ion", true},
        // backtracking stress
        LikeCase{"aaaaaaaaab", "%aab", true}, LikeCase{"aaaaaaaaab", "%aac", false},
        LikeCase{"mississippi", "%iss%ppi", true}, LikeCase{"mississippi", "%iss%ippx", false}));

TEST(Join, Basics) {
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"a"}, ", "), "a");
  EXPECT_EQ(Join({"a", "b", "c"}, "|"), "a|b|c");
}

}  // namespace
}  // namespace qc
