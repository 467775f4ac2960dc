#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "trace.h"

using namespace tunebench;

TEST(Tracer, SelfTimeExcludesChildren)
{
    Tracer tracer(true);
    tracer.beginRequest();
    {
        Tracer::Span outer = tracer.span("outer");
        Tracer::Span inner = tracer.span("inner");
    }
    ASSERT_EQ(tracer.records().size(), 2u);
    EXPECT_EQ(tracer.records()[0].parent, -1);
    EXPECT_EQ(tracer.records()[1].parent, 0);
    EXPECT_EQ(tracer.records()[1].request, 1);

    auto totals = tracer.totals();
    const int64_t outer = totals["outer"].totalNanos;
    const int64_t inner = totals["inner"].totalNanos;
    EXPECT_GE(outer, inner);
    EXPECT_EQ(totals["outer"].selfNanos, outer - inner);
    EXPECT_EQ(totals["inner"].selfNanos, inner);
}

TEST(Tracer, WriteKeepsTheFirstSpansAndCountsTheRest)
{
    Tracer tracer(true);
    for (int i = 0; i < 3; ++i)
        Tracer::Span span = tracer.span("s");
    const std::string path = ::testing::TempDir() + "tunebench_trace.jsonl";
    tracer.write(path, 2);
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0].rfind("{\"name\": \"s\", \"start_ns\": ", 0), 0u);
    EXPECT_NE(lines[1].find("\"parent\": -1"), std::string::npos);
    EXPECT_EQ(lines[2], "{\"omitted\": 1}");
}

TEST(Tracer, DisabledRecordsNothing)
{
    Tracer tracer(false);
    {
        Tracer::Span span = tracer.span("x");
    }
    EXPECT_TRUE(tracer.records().empty());
}
