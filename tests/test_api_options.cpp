#include <gtest/gtest.h>

#include <string>

#include "core/api/session.hpp"
#include "enumkernel/limits.hpp"
#include "graph/generators.hpp"
#include "support/check.hpp"

namespace dcl {
namespace {

// validate_query rejects inconsistent queries with actionable messages
// instead of letting them surface as DCL_EXPECTS failures deep inside a
// driver.

std::string message_of(const listing_query& q,
                       listing_engine engine = listing_engine::congest_sim) {
  try {
    validate_query(q, engine);
  } catch (const precondition_error& e) {
    return e.what();
  }
  return {};
}

void expect_valid(const listing_query& q,
                  listing_engine engine = listing_engine::congest_sim) {
  EXPECT_NO_THROW(validate_query(q, engine));
}

void expect_invalid(const listing_query& q,
                    listing_engine engine = listing_engine::congest_sim) {
  EXPECT_THROW(validate_query(q, engine), precondition_error);
}

TEST(OptionsValidation, DefaultsAreValid) {
  expect_valid(listing_query{});
  expect_valid(listing_query{}, listing_engine::local_kclist);
}

TEST(OptionsValidation, CongestSimPRange) {
  listing_query q;
  q.p = 2;
  expect_invalid(q);
  q.p = 7;
  expect_invalid(q);
  // The message names the offending value and the valid range.
  EXPECT_NE(message_of(q).find("p = 7"), std::string::npos);
  EXPECT_NE(message_of(q).find("[3, 6]"), std::string::npos);
  for (int p = 3; p <= 6; ++p) {
    q.p = p;
    expect_valid(q);
  }
}

TEST(OptionsValidation, LocalEnginePRange) {
  listing_query q;
  q.p = 12;  // beyond congest_sim's range, fine for the local engine
  expect_valid(q, listing_engine::local_kclist);
  q.p = enumkernel::kMaxCliqueArity + 1;
  expect_invalid(q, listing_engine::local_kclist);
  q.p = 2;
  expect_invalid(q, listing_engine::local_kclist);
}

TEST(OptionsValidation, SharedKernelArityBoundCoversBothBackends) {
  // Both backends bottom out in the shared kernel; no engine may accept an
  // arity past enumkernel::kMaxCliqueArity. The rejection happens at the
  // API boundary, not deep inside the enumerator.
  listing_query q;
  q.p = enumkernel::kMaxCliqueArity + 1;
  expect_invalid(q, listing_engine::congest_sim);
  expect_invalid(q, listing_engine::local_kclist);
  q.p = enumkernel::kMaxCliqueArity;
  expect_valid(q, listing_engine::local_kclist);
}

TEST(OptionsValidation, EpsilonRange) {
  listing_query q;
  q.epsilon = 1.0;
  expect_invalid(q);
  EXPECT_NE(message_of(q).find("epsilon"), std::string::npos);
  q.epsilon = -0.1;
  expect_invalid(q);
  // Engine-independent: the local engine rejects it too.
  expect_invalid(q, listing_engine::local_kclist);
  q.epsilon = 0.0;  // 0 selects the paper's default
  expect_valid(q);
  q.epsilon = 1.0 / 18.0;
  expect_valid(q);
}

TEST(OptionsValidation, BetaGammaPositivity) {
  listing_query q;
  q.beta = 0.0;
  expect_invalid(q);
  EXPECT_NE(message_of(q).find("beta"), std::string::npos);
  q.beta = 2.0;
  q.gamma = -3.0;
  expect_invalid(q);
  EXPECT_NE(message_of(q).find("gamma"), std::string::npos);
}

TEST(OptionsValidation, RecursionBudgets) {
  listing_query q;
  q.max_levels = 0;
  expect_invalid(q);
  EXPECT_NE(message_of(q).find("max_levels"), std::string::npos);
  q.max_levels = 64;
  q.base_case_edges = -1;
  expect_invalid(q);
  EXPECT_NE(message_of(q).find("base_case_edges"), std::string::npos);
}

TEST(OptionsValidation, StreamBatchMustBePositive) {
  listing_query q;
  q.stream_batch_tuples = 0;
  expect_invalid(q);
  EXPECT_NE(message_of(q).find("stream_batch_tuples"), std::string::npos);
  q.stream_batch_tuples = 1;
  expect_valid(q);
}

TEST(OptionsValidation, ThreadCountsAreNeverRejected) {
  // <= 0 selects the hardware concurrency for either engine.
  const auto g = gen::gnp(12, 0.3, 2);
  for (const auto engine :
       {listing_engine::congest_sim, listing_engine::local_kclist}) {
    for (const int threads : {0, -4}) {
      session_options sopt;
      sopt.engine = engine;
      sopt.threads = threads;
      EXPECT_NO_THROW(listing_session(g, sopt));
    }
  }
}

TEST(OptionsValidation, SessionRunEnforcesThePerEngineRange) {
  const auto g = gen::gnp(20, 0.2, 1);
  listing_query q;
  q.p = 9;  // out of range for congest_sim, in range for the local engine
  listing_session congest(g, {.engine = listing_engine::congest_sim});
  EXPECT_THROW(congest.run(q), precondition_error);
  listing_session local(g, {.engine = listing_engine::local_kclist});
  EXPECT_NO_THROW(local.run(q));
  q.p = enumkernel::kMaxCliqueArity + 1;
  EXPECT_THROW(local.run(q), precondition_error);
  // The knob checks run before any engine work, on either engine.
  q.p = 3;
  q.epsilon = 1.5;
  EXPECT_THROW(congest.run(q), precondition_error);
  EXPECT_THROW(local.run(q), precondition_error);
}

}  // namespace
}  // namespace dcl
