/**
 * @file
 * GPU device-model tests: SM tax of forwarding kernels (Fig. 15's
 * mechanism).
 */

#include <gtest/gtest.h>

#include "dnn/catalog.h"
#include "gpu/device.h"

namespace ccube {
namespace gpu {
namespace {

TEST(Device, NoKernelsNoTax)
{
    Device device(0, {});
    EXPECT_DOUBLE_EQ(device.forwardingTax(), 0.0);
    EXPECT_DOUBLE_EQ(device.computeSlowdown(), 1.0);
}

TEST(Device, TaxAccumulatesPerKernel)
{
    Device device(3, {});
    device.hostForwardingKernels(2, 0.02);
    EXPECT_DOUBLE_EQ(device.forwardingTax(), 0.04);
    EXPECT_NEAR(device.computeSlowdown(), 1.0 / 0.96, 1e-12);
    device.hostForwardingKernels(1, 0.02);
    EXPECT_DOUBLE_EQ(device.forwardingTax(), 0.06);
}

TEST(Device, TaxedComputeModelIsSlower)
{
    const dnn::NetworkModel net = dnn::buildZfNet();
    Device clean(0, {});
    Device taxed(1, {});
    taxed.hostForwardingKernels(2, 0.02);
    const double t_clean = clean.computeModel().forwardTime(net, 32);
    const double t_taxed = taxed.computeModel().forwardTime(net, 32);
    EXPECT_GT(t_taxed, t_clean);
    // Compute-bound layers slow by exactly the slowdown factor;
    // memory-bound terms and overheads dilute it slightly.
    EXPECT_LT(t_taxed, t_clean * taxed.computeSlowdown() + 1e-9);
}

TEST(Device, RejectsAbsurdTax)
{
    Device device(0, {});
    EXPECT_DEATH(device.hostForwardingKernels(1, 1.5), "out of range");
    EXPECT_DEATH(device.hostForwardingKernels(200, 0.01),
                 "whole GPU");
}

} // namespace
} // namespace gpu
} // namespace ccube
