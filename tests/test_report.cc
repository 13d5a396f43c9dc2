/**
 * @file
 * Smoke tests for the table/figure text renderers and the
 * command-line argument parser.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/experiment.hh"
#include "core/report.hh"

using namespace softwatt;

namespace
{

PowerBreakdown
sampleBreakdown()
{
    PowerBreakdown b;
    b.freqHz = 200e6;
    b.cycles[int(ExecMode::User)] = 140'000'000;
    b.cycles[int(ExecMode::KernelInst)] = 40'000'000;
    b.cycles[int(ExecMode::KernelSync)] = 2'000'000;
    b.cycles[int(ExecMode::Idle)] = 18'000'000;
    b.energyJ[int(ExecMode::User)][int(Component::L1ICache)] = 1.4;
    b.energyJ[int(ExecMode::User)][int(Component::Clock)] = 1.5;
    b.energyJ[int(ExecMode::KernelInst)][int(Component::Clock)] = 0.3;
    b.energyJ[int(ExecMode::Idle)][int(Component::Memory)] = 0.04;
    b.diskEnergyJ = 1.6;
    return b;
}

} // namespace

TEST(Report, PowerBudgetMentionsEveryComponent)
{
    std::ostringstream out;
    printPowerBudget(out, "Figure 5", sampleBreakdown());
    for (Component c : allComponents)
        EXPECT_NE(out.str().find(componentName(c)), std::string::npos)
            << componentName(c);
}

TEST(Report, Table2RowsPerBenchmark)
{
    std::ostringstream out;
    printTable2(out, {"jess", "db"},
                {sampleBreakdown(), sampleBreakdown()});
    EXPECT_NE(out.str().find("jess"), std::string::npos);
    EXPECT_NE(out.str().find("db"), std::string::npos);
    EXPECT_NE(out.str().find("user"), std::string::npos);
}

TEST(Report, Table3UsesCounterRatios)
{
    CounterBank bank;
    bank.addTo(ExecMode::User, CounterId::Cycles, 1000);
    bank.addTo(ExecMode::User, CounterId::IL1Ref, 2000);
    std::ostringstream out;
    printTable3(out, {"x"}, {bank});
    EXPECT_NE(out.str().find("2.0000"), std::string::npos);
}

TEST(Report, Table4RanksByCycles)
{
    std::array<ServiceStats, numServices> stats{};
    stats[int(ServiceKind::Utlb)].record(500, 1e-6);
    stats[int(ServiceKind::Read)].record(2000, 9e-6);
    std::ostringstream out;
    printTable4(out, "jess", stats);
    std::string text = out.str();
    // read (more cycles) listed before utlb.
    EXPECT_LT(text.find("read"), text.find("utlb"));
}

TEST(Report, Table5AndFig8Render)
{
    std::array<ServiceStats, numServices> stats{};
    stats[int(ServiceKind::Utlb)].record(20, 2e-7);
    stats[int(ServiceKind::Utlb)].record(21, 2.1e-7);
    stats[int(ServiceKind::Read)].record(3000, 8e-5);
    std::ostringstream out;
    printTable5(out, stats);
    printServicePower(out, stats, 200e6);
    EXPECT_NE(out.str().find("utlb"), std::string::npos);
    EXPECT_NE(out.str().find("CoD"), std::string::npos);
}

TEST(Report, TimeProfileEmitsOneRowPerWindow)
{
    SampleLog log;
    PowerTrace trace;
    for (int w = 0; w < 3; ++w) {
        SampleRecord rec;
        rec.startTick = w * 1000;
        rec.endTick = (w + 1) * 1000;
        rec.counters.addTo(ExecMode::User, CounterId::Cycles, 1000);
        log.append(rec);
        WindowPower wp;
        wp.startTick = rec.startTick;
        wp.endTick = rec.endTick;
        wp.cycles[int(ExecMode::User)] = 1000;
        wp.modePowerW[int(ExecMode::User)] = 5.0;
        trace.windows.push_back(wp);
    }
    std::ostringstream out;
    printTimeProfile(out, "Figure 4", trace, log, 200e6, 100.0);
    int rows = 0;
    std::string line;
    std::istringstream in(out.str());
    while (std::getline(in, line))
        ++rows;
    EXPECT_EQ(rows, 2 + 3);  // title + header + 3 windows
}

TEST(ParseArgs, AcceptsAssignments)
{
    const char *argv[] = {"prog", "scale=0.5", "cpu.model=mipsy"};
    Config config = parseArgs(3, const_cast<char **>(argv));
    EXPECT_DOUBLE_EQ(config.getDouble("scale", 0), 0.5);
    EXPECT_EQ(config.getString("cpu.model", ""), "mipsy");
}

TEST(ParseArgsDeath, RejectsMalformed)
{
    const char *argv[] = {"prog", "oops"};
    EXPECT_DEATH(parseArgs(2, const_cast<char **>(argv)),
                 "malformed");
}
