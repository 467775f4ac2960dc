/**
 * @file
 * Portability matrix over the champion portfolio: tune every machine's
 * champion ladder for a set of benchmarks, then cross-price every
 * stored champion on every machine and compare it against what the
 * input-adaptive Dispatcher actually serves there.
 *
 * This is the paper's portable-performance claim made executable: a
 * program autotuned for one machine is the wrong program elsewhere
 * (the off-diagonal slowdowns), and the portfolio + dispatcher layer
 * closes the gap by construction — the dispatcher prices every stored
 * candidate on the target machine, so the config it serves is never
 * worse than any foreign champion. The harness *asserts* that
 * invariant cell by cell and exits non-zero on a violation.
 *
 * Everything runs under the pure analytic model with fixed seeds
 * (20130316 ^ hash(machine)), so the emitted BENCH_portability.json is
 * bit-deterministic: two runs on the same build produce identical
 * bytes. Infeasible placements (a GPU-placed champion priced on the
 * OpenCL-less BigLittle) surface as null cells, not errors.
 *
 * Usage: fig9_portability [--short] [--out PATH]
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "benchmarks/registry.h"
#include "common.h"
#include "portfolio/dispatcher.h"
#include "portfolio/portfolio.h"
#include "support/hash.h"
#include "tuner/portfolio_tuner.h"

using namespace petabricks;

namespace {

std::string
jsonNum(double v)
{
    if (std::isinf(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

/** Price one stored champion at @p n on @p machine; +inf when the
 * placement is infeasible there (e.g. GPU stages, no OpenCL). */
double
priceOn(const apps::Benchmark &benchmark, const tuner::Config &config,
        int64_t n, const sim::MachineProfile &machine,
        const apps::EvalContext *ctx)
{
    try {
        return benchmark.evaluate(config, n, machine, ctx);
    } catch (const FatalError &) {
        return std::numeric_limits<double>::infinity();
    }
}

struct MachineResult
{
    /** cells[src] = src's native champion priced on this machine. */
    std::map<std::string, double> cells;
    /** What the dispatcher serves here (min over every candidate). */
    portfolio::DispatchDecision served;
};

} // namespace

int
main(int argc, char **argv)
{
    bool shortPreset = false;
    std::string outPath = "BENCH_portability.json";
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--short") {
            shortPreset = true;
        } else if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else {
            std::cerr << "usage: fig9_portability [--short] [--out PATH]\n";
            return 2;
        }
    }

    const std::vector<sim::MachineProfile> machines =
        sim::MachineProfile::all();
    if (machines.size() < 5) {
        std::cerr << "expected >= 5 machine profiles, got "
                  << machines.size() << "\n";
        return 1;
    }
    const std::vector<std::string> names =
        shortPreset
            ? std::vector<std::string>{"Black-Scholes", "Mandelbrot"}
            : std::vector<std::string>{"Black-Scholes", "SeparableConv.",
                                       "Mandelbrot"};

    // ---- Phase 1: fill one shared portfolio, per machine ladders ------
    portfolio::ChampionPortfolio portfolio; // memory-only
    tuner::PortfolioTuner tuner(portfolio);
    for (const std::string &name : names) {
        apps::BenchmarkPtr benchmark = apps::findBenchmark(name);
        for (const sim::MachineProfile &machine : machines) {
            tuner::PortfolioTunerOptions options;
            options.growthFactor = shortPreset ? 16 : 4;
            options.tuner.seed =
                20130316 ^ std::hash<std::string>()(machine.name);
            options.tuner.populationSize = shortPreset ? 6 : 8;
            options.tuner.generationsPerSize = shortPreset ? 3 : 6;
            std::vector<tuner::PortfolioRung> rungs =
                tuner.tune(*benchmark, machine, options);
            std::cout << name << " on " << machine.name << ": "
                      << rungs.size() << " rungs, top champion "
                      << jsonNum(rungs.back().champion.seconds)
                      << " s\n";
        }
    }

    // ---- Phase 2: cross-price + dispatch, with the invariant check ----
    portfolio::Dispatcher dispatcher(portfolio);
    int violations = 0;
    // results[benchmark][dst machine]
    std::map<std::string, std::map<std::string, MachineResult>> results;
    for (const std::string &name : names) {
        apps::BenchmarkPtr benchmark = apps::findBenchmark(name);
        const int64_t n = benchmark->testingInputSize();

        std::cout << "\n=== " << name << " (n=" << n
                  << "): tuned-on x run-on, normalized to dispatched ===\n";
        std::vector<std::string> header{"Tuned on"};
        for (const sim::MachineProfile &dst : machines)
            header.push_back("on " + dst.name);
        TextTable table(header);

        for (const sim::MachineProfile &dst : machines) {
            MachineResult &result = results[name][dst.name];
            apps::EvalContextPtr ctx =
                benchmark->makeEvalContext(n, dst);
            for (const sim::MachineProfile &src : machines) {
                auto champion =
                    portfolio.exact(name, src.fingerprint(), n);
                if (!champion) {
                    std::cerr << "missing champion: " << name << " on "
                              << src.name << "\n";
                    return 1;
                }
                result.cells[src.name] = priceOn(
                    *benchmark, champion->config, n, dst, ctx.get());
            }
            // The dispatcher's pick: every stored candidate priced on
            // dst (crossMachine disables the exact-hit short circuit),
            // so by construction it can't lose to any single cell.
            portfolio::DispatchOptions options;
            options.crossMachine = true;
            options.topK = 1 << 20; // price everything
            result.served = dispatcher.dispatch(*benchmark, n, dst, options);
            for (const sim::MachineProfile &src : machines) {
                double cell = result.cells[src.name];
                if (std::isinf(cell))
                    continue; // infeasible there; nothing to beat
                if (result.served.pricedSeconds > cell) {
                    std::cerr << "VIOLATION: " << name << " on "
                              << dst.name << ": dispatched "
                              << result.served.pricedSeconds
                              << " s loses to " << src.name
                              << "'s champion at " << cell << " s\n";
                    ++violations;
                }
            }
        }

        for (const sim::MachineProfile &src : machines) {
            std::vector<std::string> row{src.name + " champion"};
            for (const sim::MachineProfile &dst : machines) {
                const MachineResult &result = results[name][dst.name];
                double cell = result.cells.at(src.name);
                if (std::isinf(cell)) {
                    row.push_back("n/a");
                    continue;
                }
                row.push_back(
                    TextTable::num(
                        cell / result.served.pricedSeconds, 2) + "x");
            }
            table.addRow(row);
        }
        std::cout << table.toString();
        for (const sim::MachineProfile &dst : machines) {
            const MachineResult &result = results[name][dst.name];
            std::cout << "  dispatched on " << dst.name << ": champion "
                      << "tuned on " << result.served.champion.machineName
                      << " @ n=" << result.served.champion.inputSize
                      << " (" << result.served.policy << ", "
                      << jsonNum(result.served.pricedSeconds) << " s)\n";
        }
    }

    // ---- JSON ---------------------------------------------------------
    std::ofstream out(outPath);
    out << "{\n"
        << "  \"bench\": \"portability\",\n"
        << "  \"preset\": \"" << (shortPreset ? "short" : "full")
        << "\",\n"
        << "  \"machines\": [\n";
    for (size_t m = 0; m < machines.size(); ++m)
        out << "    {\"name\": \"" << machines[m].name
            << "\", \"fingerprint\": \""
            << hex16(machines[m].fingerprint()) << "\"}"
            << (m + 1 < machines.size() ? "," : "") << "\n";
    out << "  ],\n"
        << "  \"benchmarks\": [\n";
    for (size_t b = 0; b < names.size(); ++b) {
        apps::BenchmarkPtr benchmark = apps::findBenchmark(names[b]);
        out << "    {\"name\": \"" << names[b] << "\", \"n\": "
            << benchmark->testingInputSize() << ", \"targets\": [\n";
        for (size_t d = 0; d < machines.size(); ++d) {
            const MachineResult &result =
                results[names[b]][machines[d].name];
            out << "      {\"machine\": \"" << machines[d].name
                << "\", \"dispatched_seconds\": "
                << jsonNum(result.served.pricedSeconds)
                << ", \"dispatched_tuned_on\": \""
                << result.served.champion.machineName
                << "\", \"dispatched_tuned_n\": "
                << result.served.champion.inputSize
                << ", \"cells\": {";
            for (size_t s = 0; s < machines.size(); ++s)
                out << "\"" << machines[s].name << "\": "
                    << jsonNum(result.cells.at(machines[s].name))
                    << (s + 1 < machines.size() ? ", " : "");
            out << "}}" << (d + 1 < machines.size() ? "," : "") << "\n";
        }
        out << "    ]}" << (b + 1 < names.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"violations\": " << violations << "\n"
        << "}\n";
    std::cout << "\nwrote " << outPath << "\n";

    if (violations != 0) {
        std::cerr << violations
                  << " dispatch-dominance violations (see above)\n";
        return 1;
    }
    std::cout << "dispatched champion dominates every foreign champion "
                 "on all " << machines.size() << " machines\n";
    return 0;
}
