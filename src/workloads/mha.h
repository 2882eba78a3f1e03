// The Sec. 6.1 case study: the scaling loop nest of BERT's Multi-Head
// Attention, with the batched contraction producing `tmp` upstream and the
// softmax/output contraction downstream.
//
//   tmp[B,H,SM,SM]  = batched_matmul(A[B,H,SM,P], Bmat[B,H,P,SM])
//   tmp            *= scale                      <- vectorization target
//   att             = softmax(tmp)
//   out[B,H,SM,P]   = batched_matmul(att, V)
//
// The paper's BERT-LARGE configuration uses B=8, H=16, SM=512, P=SM/8=64;
// mha_defaults() scales SM down (preserving P = SM/8) so the published 75%
// input-space reduction of the minimum input-flow cut is exactly preserved:
// |tmp| = B*H*SM^2 vs |A|+|Bmat| = 2*B*H*SM*P = B*H*SM^2/4.
#pragma once

#include "ir/sdfg.h"

namespace ff::workloads {

/// `extra_layers` appends further attention-style layers (two batched
/// contractions + softmax each) after the scaling loop nest, standing in for
/// the rest of the encoder: whole-application trial cost grows with depth
/// while the cutout cost stays constant (the Sec. 6.1 "528x" asymmetry).
ir::SDFG build_mha_scale(int extra_layers = 0);

/// Default symbol values used when concretizing (scaled-down BERT-LARGE).
sym::Bindings mha_defaults(std::int64_t sm = 64);

}  // namespace ff::workloads
