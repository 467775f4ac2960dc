#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "support/error.h"

namespace petabricks {
namespace {

TEST(Error, FatalThrowsFatalError)
{
    EXPECT_THROW(PB_FATAL("bad user input " << 42), FatalError);
}

TEST(Error, PanicThrowsPanicError)
{
    EXPECT_THROW(PB_PANIC("bug " << 1), PanicError);
}

TEST(Error, FatalMessageContainsPayloadAndLocation)
{
    try {
        PB_FATAL("value=" << 7);
        FAIL() << "expected throw";
    } catch (const FatalError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("value=7"), std::string::npos) << what;
        // Source-relative, so the text carries no build-tree path.
        EXPECT_NE(what.find("fatal at tests/support/test_error.cc:"),
                  std::string::npos)
            << what;
    }
}

TEST(Error, AssertPassesOnTrue)
{
    EXPECT_NO_THROW(PB_ASSERT(1 + 1 == 2, "math"));
}

TEST(Error, AssertThrowsOnFalse)
{
    EXPECT_THROW(PB_ASSERT(false, "must fire"), PanicError);
}

TEST(Error, FatalAndPanicAreDistinctTypes)
{
    // Catch handlers for user errors must not swallow library bugs.
    EXPECT_THROW(
        {
            try {
                PB_PANIC("internal");
            } catch (const FatalError &) {
                FAIL() << "panic caught as fatal";
            }
        },
        PanicError);
}

TEST(Error, TransientIsAnEvaluationErrorIsAFatalError)
{
    // The failure taxonomy: TransientError < EvaluationError <
    // FatalError. A generic FatalError handler (worst-cost pricing)
    // still catches everything, while a retry loop can single out just
    // the transient layer.
    EXPECT_THROW(PB_TRANSIENT("flaky device"), TransientError);
    EXPECT_THROW(PB_TRANSIENT("flaky device"), EvaluationError);
    EXPECT_THROW(PB_TRANSIENT("flaky device"), FatalError);

    // ...but a plain FatalError is NOT transient: infeasible configs
    // are deterministic and must never be retried.
    EXPECT_THROW(
        {
            try {
                PB_FATAL("infeasible config");
            } catch (const TransientError &) {
                FAIL() << "fatal caught as transient";
            }
        },
        FatalError);
}

TEST(Error, TransientCatchOrderSelectsTheMostDerivedHandler)
{
    // The catch-ordering contract every retry site relies on: with the
    // transient handler listed first, a transient fault is retried and
    // a deterministic fatal is not — same try block, different arms.
    auto classify = [](const std::function<void()> &thrower) {
        try {
            thrower();
        } catch (const TransientError &) {
            return std::string("retry");
        } catch (const FatalError &) {
            return std::string("worst-cost");
        }
        return std::string("ok");
    };
    EXPECT_EQ(classify([] { PB_TRANSIENT("hang"); }), "retry");
    EXPECT_EQ(classify([] { PB_FATAL("inadmissible"); }), "worst-cost");
    EXPECT_EQ(classify([] {}), "ok");
}

TEST(Error, TransientMessageCarriesPayloadAndLocation)
{
    try {
        PB_TRANSIENT("timeout after " << 250 << "ms");
        FAIL() << "expected throw";
    } catch (const TransientError &err) {
        std::string what = err.what();
        EXPECT_NE(what.find("timeout after 250ms"), std::string::npos)
            << what;
        EXPECT_NE(what.find("test_error.cc"), std::string::npos) << what;
    }
}

} // namespace
} // namespace petabricks
