// The typed Observable: construction-time validation and exact
// round-tripping.
#include <gtest/gtest.h>

#include <string>

#include "qcut/common/error.hpp"
#include "qcut/sim/observable.hpp"

namespace qcut {
namespace {

TEST(Observable, ParseToStringRoundTripsExactly) {
  for (const std::string s : {"Z", "I", "XYZI", "ZZZZZZZZ", "XXIIZZYY"}) {
    const Observable obs = Observable::parse(s);
    EXPECT_EQ(obs.to_string(), s);
    EXPECT_EQ(Observable::parse(obs.to_string()), obs);
    EXPECT_EQ(obs.n_qubits(), static_cast<int>(s.size()));
  }
}

TEST(Observable, RejectsEmptyAndInvalidCharactersWithPosition) {
  EXPECT_THROW(Observable::parse(""), Error);
  try {
    Observable::parse("ZZqZ");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'q'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("qubit 2"), std::string::npos) << msg;
  }
  EXPECT_THROW(Observable::parse("z"), Error);   // lowercase is not accepted
  EXPECT_THROW(Observable::parse("Z Z"), Error);
  EXPECT_THROW(Observable::parse("ZZB"), Error);
}

TEST(Observable, FactoriesAndAccessors) {
  const Observable z3 = Observable::z_all(3);
  EXPECT_EQ(z3.to_string(), "ZZZ");
  const Observable x2 = Observable::x_all(2);
  EXPECT_EQ(x2.to_string(), "XX");
  EXPECT_THROW(Observable::z_all(0), Error);

  const Observable mixed = Observable::parse("XIZY");
  EXPECT_EQ(mixed.pauli(0), 'X');
  EXPECT_EQ(mixed.pauli(3), 'Y');
  EXPECT_THROW(mixed.pauli(4), Error);
  EXPECT_THROW(mixed.pauli(-1), Error);

  EXPECT_TRUE(Observable::parse("III").is_identity());
  EXPECT_FALSE(mixed.is_identity());
  EXPECT_EQ(Observable(), Observable::parse("Z"));  // documented default
}

}  // namespace
}  // namespace qcut
