#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "nn/gemm.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace ovs::nn {

namespace {

using internal::VariableNode;

/// Accumulates `delta` into parent i's grad if that parent wants gradients.
void AccumulateInto(VariableNode& n, size_t parent, const Tensor& delta) {
  if (n.parents[parent]->requires_grad) {
    n.parents[parent]->MutableGrad().AddInPlace(delta);
  }
}

/// Counts one GEMM's multiply-adds into `nn.gemm_flops` — once per call,
/// outside the ParallelFor, so the counter is a pure function of the shapes
/// multiplied and bitwise-stable at any thread count (the run-report work
/// counter tools/perfdiff gates on). Always the nominal 2*N*K*M figure.
void CountGemmFlops(int64_t n, int64_t k, int64_t m) {
  OVS_COUNTER_ADD("nn.gemm_flops", static_cast<uint64_t>(2 * n * k * m));
}

/// Tensor-level wrappers over the register-blocked kernels in nn/gemm.h
/// (row-major, no transpose flags: the three cases we need are materialized
/// explicitly for clarity). All add into c. There is no zero-skip fast
/// path: 0 * NaN stays NaN, so poisoned operands propagate to the loss
/// instead of being silently swallowed.
void GemmNN(const Tensor& a, const Tensor& b, Tensor* c) {
  // c[N,M] += a[N,K] * b[K,M]
  const int n = a.dim(0), k = a.dim(1), m = b.dim(1);
  CHECK_EQ(b.dim(0), k);
  CHECK_EQ(c->dim(0), n);
  CHECK_EQ(c->dim(1), m);
  CountGemmFlops(n, k, m);
  gemm::GemmNN(n, k, m, a.data(), b.data(), c->data());
}

void GemmNT(const Tensor& a, const Tensor& b, Tensor* c) {
  // c[N,K] += a[N,M] * b[K,M]^T
  const int n = a.dim(0), m = a.dim(1), k = b.dim(0);
  CHECK_EQ(b.dim(1), m);
  CHECK_EQ(c->dim(0), n);
  CHECK_EQ(c->dim(1), k);
  CountGemmFlops(n, k, m);
  gemm::GemmNT(n, k, m, a.data(), b.data(), c->data());
}

void GemmTN(const Tensor& a, const Tensor& b, Tensor* c) {
  // c[K,M] += a[N,K]^T * b[N,M]
  const int n = a.dim(0), k = a.dim(1), m = b.dim(1);
  CHECK_EQ(b.dim(0), n);
  CHECK_EQ(c->dim(0), k);
  CHECK_EQ(c->dim(1), m);
  CountGemmFlops(n, k, m);
  gemm::GemmTN(n, k, m, a.data(), b.data(), c->data());
}

}  // namespace

Variable Add(const Variable& a, const Variable& b) {
  CHECK(a.value().SameShape(b.value()))
      << "Add: " << ShapeToString(a.shape()) << " vs " << ShapeToString(b.shape());
  Tensor out = a.value();
  out.AddInPlace(b.value());
  return Variable::MakeNode(std::move(out), {a, b}, [](VariableNode& n) {
    AccumulateInto(n, 0, n.grad);
    AccumulateInto(n, 1, n.grad);
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  CHECK(a.value().SameShape(b.value()));
  Tensor out = a.value();
  out.AxpyInPlace(-1.0f, b.value());
  return Variable::MakeNode(std::move(out), {a, b}, [](VariableNode& n) {
    AccumulateInto(n, 0, n.grad);
    if (n.parents[1]->requires_grad) {
      n.parents[1]->MutableGrad().AxpyInPlace(-1.0f, n.grad);
    }
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  CHECK(a.value().SameShape(b.value()));
  Tensor out(a.shape());
  const int count = out.numel();
  const float* av = a.value().data();
  const float* bv = b.value().data();
  float* o = out.data();
  for (int i = 0; i < count; ++i) o[i] = av[i] * bv[i];
  return Variable::MakeNode(std::move(out), {a, b}, [](VariableNode& n) {
    const float* pav = n.parents[0]->value.data();
    const float* pbv = n.parents[1]->value.data();
    const float* gr = n.grad.data();
    if (n.parents[0]->requires_grad) {
      Tensor& ga = n.parents[0]->MutableGrad();
      const int cnt = ga.numel();
      float* g = ga.data();
      for (int i = 0; i < cnt; ++i) g[i] += gr[i] * pbv[i];
    }
    if (n.parents[1]->requires_grad) {
      Tensor& gb = n.parents[1]->MutableGrad();
      const int cnt = gb.numel();
      float* g = gb.data();
      for (int i = 0; i < cnt; ++i) g[i] += gr[i] * pav[i];
    }
  });
}

Variable ScalarMul(const Variable& a, float alpha) {
  Tensor out = a.value();
  out.ScaleInPlace(alpha);
  return Variable::MakeNode(std::move(out), {a}, [alpha](VariableNode& n) {
    if (n.parents[0]->requires_grad) {
      n.parents[0]->MutableGrad().AxpyInPlace(alpha, n.grad);
    }
  });
}

Variable AddScalar(const Variable& a, float alpha) {
  Tensor out = a.value();
  const int count = out.numel();
  float* o = out.data();
  for (int i = 0; i < count; ++i) o[i] += alpha;
  return Variable::MakeNode(std::move(out), {a}, [](VariableNode& n) {
    AccumulateInto(n, 0, n.grad);
  });
}

Variable MulConst(const Variable& a, const Tensor& mask) {
  CHECK(a.value().SameShape(mask));
  Tensor out(a.shape());
  const int count = out.numel();
  const float* av = a.value().data();
  const float* mv = mask.data();
  float* o = out.data();
  for (int i = 0; i < count; ++i) o[i] = av[i] * mv[i];
  return Variable::MakeNode(std::move(out), {a}, [mask](VariableNode& n) {
    if (n.parents[0]->requires_grad) {
      Tensor& grad = n.parents[0]->MutableGrad();
      const int cnt = grad.numel();
      float* g = grad.data();
      const float* gr = n.grad.data();
      const float* pmv = mask.data();
      for (int i = 0; i < cnt; ++i) g[i] += gr[i] * pmv[i];
    }
  });
}

Variable MatMul(const Variable& a, const Variable& b) {
  CHECK_EQ(a.value().rank(), 2);
  CHECK_EQ(b.value().rank(), 2);
  CHECK_EQ(a.value().dim(1), b.value().dim(0))
      << "MatMul: " << ShapeToString(a.shape()) << " x " << ShapeToString(b.shape());
  Tensor out({a.value().dim(0), b.value().dim(1)});
  GemmNN(a.value(), b.value(), &out);
  return Variable::MakeNode(std::move(out), {a, b}, [](VariableNode& n) {
    const Tensor& av = n.parents[0]->value;
    const Tensor& bv = n.parents[1]->value;
    if (n.parents[0]->requires_grad) {
      GemmNT(n.grad, bv, &n.parents[0]->MutableGrad());
    }
    if (n.parents[1]->requires_grad) {
      GemmTN(av, n.grad, &n.parents[1]->MutableGrad());
    }
  });
}

Variable AddBias(const Variable& x, const Variable& bias) {
  CHECK_EQ(x.value().rank(), 2);
  const int n = x.value().dim(0), d = x.value().dim(1);
  CHECK_EQ(bias.numel(), d) << "AddBias dim mismatch";
  Tensor out = x.value();
  const float* bv = bias.value().data();
  float* o = out.data();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) o[i * d + j] += bv[j];
  }
  return Variable::MakeNode(std::move(out), {x, bias}, [n, d](VariableNode& node) {
    AccumulateInto(node, 0, node.grad);
    if (node.parents[1]->requires_grad) {
      float* gb = node.parents[1]->MutableGrad().data();
      const float* gr = node.grad.data();
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < d; ++j) gb[j] += gr[i * d + j];
      }
    }
  });
}

Variable BatchedFixedMatMul(const Tensor& a, const Variable& x, int blocks) {
  CHECK_EQ(a.rank(), 2);
  CHECK_EQ(x.value().rank(), 2);
  CHECK_GE(blocks, 1);
  const int rows = a.dim(0), cols = a.dim(1), t = x.value().dim(1);
  CHECK_EQ(x.value().dim(0), cols * blocks)
      << "BatchedFixedMatMul: x is " << ShapeToString(x.shape()) << " but a is "
      << ShapeToString(a.shape()) << " with " << blocks << " blocks";
  Tensor out({rows * blocks, t});
  CountGemmFlops(int64_t{rows} * blocks, cols, t);
  // One block-diagonal product: block b of the output only reads block b of
  // x, so each block is bitwise-identical to a blocks=1 product.
  for (int b = 0; b < blocks; ++b) {
    gemm::GemmNN(rows, cols, t, a.data(), x.value().data() + int64_t{b} * cols * t,
                 out.data() + int64_t{b} * rows * t);
  }
  return Variable::MakeNode(
      std::move(out), {x}, [a, blocks, rows, cols, t](VariableNode& n) {
        if (!n.parents[0]->requires_grad) return;
        // dx block b = a^T * (grad block b).
        CountGemmFlops(int64_t{rows} * blocks, cols, t);
        Tensor& gx = n.parents[0]->MutableGrad();
        for (int b = 0; b < blocks; ++b) {
          gemm::GemmTN(rows, cols, t, a.data(),
                       n.grad.data() + int64_t{b} * rows * t,
                       gx.data() + int64_t{b} * cols * t);
        }
      });
}

Variable Sigmoid(const Variable& x) {
  Tensor out(x.shape());
  const int count = out.numel();
  const float* xv = x.value().data();
  float* o = out.data();
  for (int i = 0; i < count; ++i) {
    o[i] = 1.0f / (1.0f + std::exp(-xv[i]));
  }
  return Variable::MakeNode(std::move(out), {x}, [](VariableNode& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& grad = n.parents[0]->MutableGrad();
    const int cnt = grad.numel();
    float* g = grad.data();
    const float* gr = n.grad.data();
    const float* sv = n.value.data();  // the op's own output
    for (int i = 0; i < cnt; ++i) {
      g[i] += gr[i] * sv[i] * (1.0f - sv[i]);
    }
  });
}

Variable Tanh(const Variable& x) {
  Tensor out(x.shape());
  const int count = out.numel();
  const float* xv = x.value().data();
  float* o = out.data();
  for (int i = 0; i < count; ++i) o[i] = std::tanh(xv[i]);
  return Variable::MakeNode(std::move(out), {x}, [](VariableNode& n) {
    if (!n.parents[0]->requires_grad) return;
    Tensor& grad = n.parents[0]->MutableGrad();
    const int cnt = grad.numel();
    float* g = grad.data();
    const float* gr = n.grad.data();
    const float* sv = n.value.data();  // the op's own output
    for (int i = 0; i < cnt; ++i) {
      g[i] += gr[i] * (1.0f - sv[i] * sv[i]);
    }
  });
}

Variable Relu(const Variable& x) {
  Tensor out(x.shape());
  const int count = out.numel();
  const float* xv = x.value().data();
  float* o = out.data();
  for (int i = 0; i < count; ++i) {
    o[i] = xv[i] > 0.0f ? xv[i] : 0.0f;
  }
  return Variable::MakeNode(std::move(out), {x}, [](VariableNode& n) {
    if (!n.parents[0]->requires_grad) return;
    const float* pxv = n.parents[0]->value.data();
    Tensor& grad = n.parents[0]->MutableGrad();
    const int cnt = grad.numel();
    float* g = grad.data();
    const float* gr = n.grad.data();
    for (int i = 0; i < cnt; ++i) {
      if (pxv[i] > 0.0f) g[i] += gr[i];
    }
  });
}

Variable SoftmaxRows(const Variable& x) {
  CHECK_EQ(x.value().rank(), 2);
  const int n = x.value().dim(0), d = x.value().dim(1);
  Tensor out(x.shape());
  const float* xv = x.value().data();
  float* o = out.data();
  for (int i = 0; i < n; ++i) {
    float max_v = -1e30f;
    for (int j = 0; j < d; ++j) max_v = std::max(max_v, xv[i * d + j]);
    float denom = 0.0f;
    for (int j = 0; j < d; ++j) {
      o[i * d + j] = std::exp(xv[i * d + j] - max_v);
      denom += o[i * d + j];
    }
    for (int j = 0; j < d; ++j) o[i * d + j] /= denom;
  }
  return Variable::MakeNode(std::move(out), {x}, [n, d](VariableNode& node) {
    if (!node.parents[0]->requires_grad) return;
    float* g = node.parents[0]->MutableGrad().data();
    const float* gr = node.grad.data();
    const float* sv = node.value.data();  // the op's own output
    for (int i = 0; i < n; ++i) {
      float dot = 0.0f;
      for (int j = 0; j < d; ++j) dot += gr[i * d + j] * sv[i * d + j];
      for (int j = 0; j < d; ++j) {
        g[i * d + j] += sv[i * d + j] * (gr[i * d + j] - dot);
      }
    }
  });
}

Variable Dropout(const Variable& x, float rate, bool train, Rng* rng) {
  CHECK_GE(rate, 0.0f);
  CHECK_LT(rate, 1.0f);
  if (!train || rate == 0.0f) return x;
  CHECK(rng != nullptr);
  const float keep = 1.0f - rate;
  Tensor mask(x.shape());
  for (int i = 0; i < mask.numel(); ++i) {
    mask[i] = rng->Bernoulli(keep) ? 1.0f / keep : 0.0f;
  }
  return MulConst(x, mask);
}

Variable Conv1dBatch(const Variable& x, const Variable& w, const Variable& bias) {
  CHECK_EQ(x.value().rank(), 3);
  CHECK_EQ(w.value().rank(), 3);
  const int n = x.value().dim(0), cin = x.value().dim(1), t = x.value().dim(2);
  const int cout = w.value().dim(0), k = w.value().dim(2);
  CHECK_EQ(w.value().dim(1), cin);
  CHECK_EQ(bias.numel(), cout);
  const int pad = k / 2;

  Tensor out({n, cout, t});
  {
    const float* xv = x.value().data();
    const float* wv = w.value().data();
    const float* bv = bias.value().data();
    float* o = out.data();
    for (int b = 0; b < n; ++b) {
      for (int co = 0; co < cout; ++co) {
        for (int u = 0; u < t; ++u) {
          float acc = bv[co];
          for (int ci = 0; ci < cin; ++ci) {
            for (int kk = 0; kk < k; ++kk) {
              const int src = u + kk - pad;
              if (src < 0 || src >= t) continue;
              acc += wv[(co * cin + ci) * k + kk] * xv[(b * cin + ci) * t + src];
            }
          }
          o[(b * cout + co) * t + u] = acc;
        }
      }
    }
  }
  return Variable::MakeNode(
      std::move(out), {x, w, bias},
      [n, cin, t, cout, k, pad](VariableNode& node) {
        const float* xv = node.parents[0]->value.data();
        const float* wv = node.parents[1]->value.data();
        const bool need_x = node.parents[0]->requires_grad;
        const bool need_w = node.parents[1]->requires_grad;
        const bool need_b = node.parents[2]->requires_grad;
        float* gx = need_x ? node.parents[0]->MutableGrad().data() : nullptr;
        float* gw = need_w ? node.parents[1]->MutableGrad().data() : nullptr;
        float* gb = need_b ? node.parents[2]->MutableGrad().data() : nullptr;
        const float* gr = node.grad.data();
        for (int b = 0; b < n; ++b) {
          for (int co = 0; co < cout; ++co) {
            for (int u = 0; u < t; ++u) {
              const float g = gr[(b * cout + co) * t + u];
              if (g == 0.0f) continue;
              if (gb != nullptr) gb[co] += g;
              for (int ci = 0; ci < cin; ++ci) {
                for (int kk = 0; kk < k; ++kk) {
                  const int src = u + kk - pad;
                  if (src < 0 || src >= t) continue;
                  if (gx != nullptr) {
                    gx[(b * cin + ci) * t + src] += g * wv[(co * cin + ci) * k + kk];
                  }
                  if (gw != nullptr) {
                    gw[(co * cin + ci) * k + kk] += g * xv[(b * cin + ci) * t + src];
                  }
                }
              }
            }
          }
        }
      });
}

Variable SumBatchBlocks(const Variable& x, int blocks) {
  CHECK_EQ(x.value().rank(), 3);
  CHECK_GE(blocks, 1);
  CHECK_EQ(x.value().dim(0) % blocks, 0)
      << "SumBatchBlocks: " << ShapeToString(x.shape()) << " not divisible into "
      << blocks << " blocks";
  const int n = x.value().dim(0) / blocks;
  const int c = x.value().dim(1), t = x.value().dim(2);
  Tensor out({blocks * c, t});
  // Items accumulate in ascending order within each block, so block r is
  // bitwise-identical to a blocks=1 sum over that block alone.
  for (int r = 0; r < blocks; ++r) {
    float* orow = out.data() + int64_t{r} * c * t;
    const float* xblk = x.value().data() + int64_t{r} * n * c * t;
    for (int b = 0; b < n; ++b) {
      for (int i = 0; i < c * t; ++i) orow[i] += xblk[b * c * t + i];
    }
  }
  return Variable::MakeNode(
      std::move(out), {x}, [blocks, n, c, t](VariableNode& node) {
        if (!node.parents[0]->requires_grad) return;
        Tensor& g = node.parents[0]->MutableGrad();
        for (int r = 0; r < blocks; ++r) {
          const float* grow = node.grad.data() + int64_t{r} * c * t;
          float* gblk = g.data() + int64_t{r} * n * c * t;
          for (int b = 0; b < n; ++b) {
            for (int i = 0; i < c * t; ++i) gblk[b * c * t + i] += grow[i];
          }
        }
      });
}

Variable SumCols(const Variable& x) {
  CHECK_EQ(x.value().rank(), 2);
  const int n = x.value().dim(0), t = x.value().dim(1);
  Tensor out({n, 1});
  {
    const float* xv = x.value().data();
    float* o = out.data();
    for (int i = 0; i < n; ++i) {
      float acc = 0.0f;
      for (int j = 0; j < t; ++j) acc += xv[i * t + j];
      o[i] = acc;
    }
  }
  return Variable::MakeNode(std::move(out), {x}, [n, t](VariableNode& node) {
    if (!node.parents[0]->requires_grad) return;
    float* g = node.parents[0]->MutableGrad().data();
    const float* gr = node.grad.data();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < t; ++j) g[i * t + j] += gr[i];
    }
  });
}

Variable ColSlice(const Variable& x, int t) {
  CHECK_EQ(x.value().rank(), 2);
  const int n = x.value().dim(0), cols = x.value().dim(1);
  CHECK_GE(t, 0);
  CHECK_LT(t, cols);
  Tensor out({n, 1});
  {
    const float* xv = x.value().data();
    float* o = out.data();
    for (int i = 0; i < n; ++i) o[i] = xv[i * cols + t];
  }
  return Variable::MakeNode(std::move(out), {x}, [n, cols, t](VariableNode& node) {
    if (!node.parents[0]->requires_grad) return;
    float* g = node.parents[0]->MutableGrad().data();
    const float* gr = node.grad.data();
    for (int i = 0; i < n; ++i) g[i * cols + t] += gr[i];
  });
}

Variable ConcatCols(const std::vector<Variable>& cols) {
  CHECK(!cols.empty());
  const int n = cols[0].value().dim(0);
  const int t = static_cast<int>(cols.size());
  for (const Variable& c : cols) {
    CHECK_EQ(c.value().rank(), 2);
    CHECK_EQ(c.value().dim(0), n);
    CHECK_EQ(c.value().dim(1), 1);
  }
  Tensor out({n, t});
  {
    float* o = out.data();
    for (int j = 0; j < t; ++j) {
      const float* cv = cols[j].value().data();
      for (int i = 0; i < n; ++i) o[i * t + j] = cv[i];
    }
  }
  return Variable::MakeNode(std::move(out), cols, [n, t](VariableNode& node) {
    const float* gr = node.grad.data();
    for (int j = 0; j < t; ++j) {
      if (!node.parents[j]->requires_grad) continue;
      float* g = node.parents[j]->MutableGrad().data();
      for (int i = 0; i < n; ++i) g[i] += gr[i * t + j];
    }
  });
}

Variable ConcatFeatures(const Variable& a, const Variable& b) {
  CHECK_EQ(a.value().rank(), 2);
  CHECK_EQ(b.value().rank(), 2);
  const int n = a.value().dim(0);
  CHECK_EQ(b.value().dim(0), n);
  const int d1 = a.value().dim(1), d2 = b.value().dim(1);
  Tensor out({n, d1 + d2});
  {
    const float* av = a.value().data();
    const float* bv = b.value().data();
    float* o = out.data();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < d1; ++j) o[i * (d1 + d2) + j] = av[i * d1 + j];
      for (int j = 0; j < d2; ++j) {
        o[i * (d1 + d2) + d1 + j] = bv[i * d2 + j];
      }
    }
  }
  return Variable::MakeNode(std::move(out), {a, b}, [n, d1, d2](VariableNode& node) {
    const int d = d1 + d2;
    const float* gr = node.grad.data();
    if (node.parents[0]->requires_grad) {
      float* g = node.parents[0]->MutableGrad().data();
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < d1; ++j) g[i * d1 + j] += gr[i * d + j];
      }
    }
    if (node.parents[1]->requires_grad) {
      float* g = node.parents[1]->MutableGrad().data();
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < d2; ++j) g[i * d2 + j] += gr[i * d + d1 + j];
      }
    }
  });
}

Variable ConcatFeatureList(const std::vector<Variable>& parts) {
  CHECK(!parts.empty());
  const int n = parts[0].value().dim(0);
  int total = 0;
  for (const Variable& p : parts) {
    CHECK_EQ(p.value().rank(), 2);
    CHECK_EQ(p.value().dim(0), n);
    total += p.value().dim(1);
  }
  Tensor out({n, total});
  {
    float* o = out.data();
    int offset = 0;
    for (const Variable& p : parts) {
      const int d = p.value().dim(1);
      const float* pv = p.value().data();
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < d; ++j) o[i * total + offset + j] = pv[i * d + j];
      }
      offset += d;
    }
  }
  return Variable::MakeNode(
      std::move(out), parts, [n, total](VariableNode& node) {
        const float* gr = node.grad.data();
        int off = 0;
        for (size_t k = 0; k < node.parents.size(); ++k) {
          const int d = node.parents[k]->value.dim(1);
          if (node.parents[k]->requires_grad) {
            float* g = node.parents[k]->MutableGrad().data();
            for (int i = 0; i < n; ++i) {
              for (int j = 0; j < d; ++j) {
                g[i * d + j] += gr[i * total + off + j];
              }
            }
          }
          off += d;
        }
      });
}

Variable ConcatFlat(const std::vector<Variable>& parts) {
  CHECK(!parts.empty());
  int total = 0;
  for (const Variable& p : parts) {
    CHECK_EQ(p.value().rank(), 1);
    total += p.numel();
  }
  Tensor out({total});
  {
    float* o = out.data();
    int offset = 0;
    for (const Variable& p : parts) {
      const float* pv = p.value().data();
      for (int i = 0; i < p.numel(); ++i) o[offset + i] = pv[i];
      offset += p.numel();
    }
  }
  return Variable::MakeNode(std::move(out), parts, [](VariableNode& node) {
    const float* gr = node.grad.data();
    int off = 0;
    for (size_t k = 0; k < node.parents.size(); ++k) {
      const int d = node.parents[k]->value.numel();
      if (node.parents[k]->requires_grad) {
        float* g = node.parents[k]->MutableGrad().data();
        for (int i = 0; i < d; ++i) g[i] += gr[off + i];
      }
      off += d;
    }
  });
}

Variable SliceCols(const Variable& x, int start, int count) {
  CHECK_EQ(x.value().rank(), 2);
  const int n = x.value().dim(0), d = x.value().dim(1);
  CHECK_GE(start, 0);
  CHECK_GT(count, 0);
  CHECK_LE(start + count, d);
  Tensor out({n, count});
  {
    const float* xv = x.value().data();
    float* o = out.data();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < count; ++j) o[i * count + j] = xv[i * d + start + j];
    }
  }
  return Variable::MakeNode(
      std::move(out), {x}, [n, d, start, count](VariableNode& node) {
        if (!node.parents[0]->requires_grad) return;
        float* g = node.parents[0]->MutableGrad().data();
        const float* gr = node.grad.data();
        for (int i = 0; i < n; ++i) {
          for (int j = 0; j < count; ++j) {
            g[i * d + start + j] += gr[i * count + j];
          }
        }
      });
}

Variable ConcatRows(const std::vector<Variable>& parts) {
  CHECK(!parts.empty());
  const int d = parts[0].value().dim(1);
  int total = 0;
  for (const Variable& p : parts) {
    CHECK_EQ(p.value().rank(), 2);
    CHECK_EQ(p.value().dim(1), d);
    total += p.value().dim(0);
  }
  Tensor out({total, d});
  {
    float* o = out.data();
    int row = 0;
    for (const Variable& p : parts) {
      const int n = p.value().dim(0);
      const float* pv = p.value().data();
      for (int i = 0; i < n * d; ++i) o[row * d + i] = pv[i];
      row += n;
    }
  }
  return Variable::MakeNode(std::move(out), parts, [d](VariableNode& node) {
    const float* gr = node.grad.data();
    int base = 0;
    for (size_t k = 0; k < node.parents.size(); ++k) {
      const int n = node.parents[k]->value.dim(0);
      if (node.parents[k]->requires_grad) {
        float* g = node.parents[k]->MutableGrad().data();
        for (int i = 0; i < n * d; ++i) g[i] += gr[base * d + i];
      }
      base += n;
    }
  });
}

Variable SliceRows(const Variable& x, int start, int count) {
  CHECK_EQ(x.value().rank(), 2);
  const int n = x.value().dim(0), d = x.value().dim(1);
  CHECK_GE(start, 0);
  CHECK_GT(count, 0);
  CHECK_LE(start + count, n);
  Tensor out({count, d});
  {
    const float* xv = x.value().data();
    float* o = out.data();
    for (int i = 0; i < count * d; ++i) o[i] = xv[start * d + i];
  }
  return Variable::MakeNode(
      std::move(out), {x}, [start, d, count](VariableNode& node) {
        if (!node.parents[0]->requires_grad) return;
        float* g = node.parents[0]->MutableGrad().data();
        const float* gr = node.grad.data();
        for (int i = 0; i < count * d; ++i) g[start * d + i] += gr[i];
      });
}

Variable TileRows(const Variable& x, int repeats) {
  CHECK_EQ(x.value().rank(), 2);
  CHECK_GE(repeats, 1);
  const int n = x.value().dim(0), d = x.value().dim(1);
  Tensor out({repeats * n, d});
  {
    const float* xv = x.value().data();
    float* o = out.data();
    for (int r = 0; r < repeats; ++r) {
      for (int i = 0; i < n * d; ++i) o[r * n * d + i] = xv[i];
    }
  }
  return Variable::MakeNode(
      std::move(out), {x}, [repeats, n, d](VariableNode& node) {
        if (!node.parents[0]->requires_grad) return;
        float* g = node.parents[0]->MutableGrad().data();
        const float* gr = node.grad.data();
        // Blocks accumulate in ascending block order — fixed, so results
        // cannot depend on scheduling.
        for (int r = 0; r < repeats; ++r) {
          for (int i = 0; i < n * d; ++i) g[i] += gr[r * n * d + i];
        }
      });
}

Variable GatherRows(const Variable& x, const std::vector<int>& indices) {
  CHECK_EQ(x.value().rank(), 2);
  const int n = x.value().dim(0), d = x.value().dim(1);
  Tensor out({static_cast<int>(indices.size()), d});
  {
    const float* xv = x.value().data();
    float* o = out.data();
    for (size_t i = 0; i < indices.size(); ++i) {
      CHECK_GE(indices[i], 0);
      CHECK_LT(indices[i], n);
      for (int j = 0; j < d; ++j) {
        o[static_cast<int>(i) * d + j] = xv[indices[i] * d + j];
      }
    }
  }
  return Variable::MakeNode(std::move(out), {x}, [indices, d](VariableNode& node) {
    if (!node.parents[0]->requires_grad) return;
    float* g = node.parents[0]->MutableGrad().data();
    const float* gr = node.grad.data();
    for (size_t i = 0; i < indices.size(); ++i) {
      for (int j = 0; j < d; ++j) {
        g[indices[i] * d + j] += gr[static_cast<int>(i) * d + j];
      }
    }
  });
}

Variable Reshape(const Variable& x, const Shape& new_shape) {
  Tensor out = x.value().Reshaped(new_shape);
  return Variable::MakeNode(std::move(out), {x}, [](VariableNode& node) {
    if (!node.parents[0]->requires_grad) return;
    Tensor& grad = node.parents[0]->MutableGrad();
    float* g = grad.data();
    const float* gr = node.grad.data();
    const int count = grad.numel();
    for (int i = 0; i < count; ++i) g[i] += gr[i];
  });
}

Variable BatchedBuildAttentionInput(const Variable& e, const Variable& emb,
                                    int blocks) {
  CHECK_EQ(e.value().rank(), 2);
  CHECK_EQ(emb.value().rank(), 2);
  CHECK_GE(blocks, 1);
  CHECK_EQ(e.value().dim(0) % blocks, 0)
      << "BatchedBuildAttentionInput: " << ShapeToString(e.shape())
      << " not divisible into " << blocks << " blocks";
  const int c = e.value().dim(0) / blocks, t = e.value().dim(1);
  const int m = emb.value().dim(0), de = emb.value().dim(1);
  Tensor out({blocks * m * t, c + de});
  {
    float* o = out.data();
    const float* embv = emb.value().data();
    for (int r = 0; r < blocks; ++r) {
      const float* eblk = e.value().data() + int64_t{r} * c * t;
      for (int link = 0; link < m; ++link) {
        for (int u = 0; u < t; ++u) {
          const int row = (r * m + link) * t + u;
          for (int j = 0; j < c; ++j) {
            o[row * (c + de) + j] = eblk[j * t + u];
          }
          for (int j = 0; j < de; ++j) {
            o[row * (c + de) + c + j] = embv[link * de + j];
          }
        }
      }
    }
  }
  return Variable::MakeNode(
      std::move(out), {e, emb}, [blocks, c, t, m, de](VariableNode& node) {
        const int width = c + de;
        const float* gr = node.grad.data();
        if (node.parents[0]->requires_grad) {
          Tensor& ge = node.parents[0]->MutableGrad();
          for (int r = 0; r < blocks; ++r) {
            float* geblk = ge.data() + int64_t{r} * c * t;
            for (int link = 0; link < m; ++link) {
              for (int u = 0; u < t; ++u) {
                const int row = (r * m + link) * t + u;
                for (int j = 0; j < c; ++j) {
                  geblk[j * t + u] += gr[row * width + j];
                }
              }
            }
          }
        }
        if (node.parents[1]->requires_grad) {
          // Embedding grads accumulate block-ascending, link-ascending —
          // a fixed serial order regardless of the batch width.
          float* gm = node.parents[1]->MutableGrad().data();
          for (int r = 0; r < blocks; ++r) {
            for (int link = 0; link < m; ++link) {
              for (int u = 0; u < t; ++u) {
                const int row = (r * m + link) * t + u;
                for (int j = 0; j < de; ++j) {
                  gm[link * de + j] += gr[row * width + c + j];
                }
              }
            }
          }
        }
      });
}

Variable LagAttentionApply(const Variable& alpha, const Variable& s, int lags) {
  CHECK_EQ(alpha.value().rank(), 2);
  CHECK_EQ(s.value().rank(), 2);
  const int m = s.value().dim(0), t = s.value().dim(1);
  CHECK_EQ(alpha.value().dim(0), m * t);
  CHECK_EQ(alpha.value().dim(1), lags);
  Tensor out({m, t});
  {
    const float* avv = alpha.value().data();
    const float* svv = s.value().data();
    float* o = out.data();
    for (int link = 0; link < m; ++link) {
      for (int u = 0; u < t; ++u) {
        float acc = 0.0f;
        for (int tau = 0; tau < lags && tau <= u; ++tau) {
          acc += avv[(link * t + u) * lags + tau] * svv[link * t + (u - tau)];
        }
        o[link * t + u] = acc;
      }
    }
  }
  return Variable::MakeNode(
      std::move(out), {alpha, s}, [m, t, lags](VariableNode& node) {
        const float* av = node.parents[0]->value.data();
        const float* sv = node.parents[1]->value.data();
        const bool need_a = node.parents[0]->requires_grad;
        const bool need_s = node.parents[1]->requires_grad;
        float* ga = need_a ? node.parents[0]->MutableGrad().data() : nullptr;
        float* gs = need_s ? node.parents[1]->MutableGrad().data() : nullptr;
        const float* gr = node.grad.data();
        for (int link = 0; link < m; ++link) {
          for (int u = 0; u < t; ++u) {
            const float g = gr[link * t + u];
            if (g == 0.0f) continue;
            for (int tau = 0; tau < lags && tau <= u; ++tau) {
              const int arow = (link * t + u) * lags + tau;
              const int sidx = link * t + (u - tau);
              if (ga != nullptr) ga[arow] += g * sv[sidx];
              if (gs != nullptr) gs[sidx] += g * av[arow];
            }
          }
        }
      });
}

Variable Sum(const Variable& x) {
  Tensor out = Tensor::Scalar(x.value().Sum());
  return Variable::MakeNode(std::move(out), {x}, [](VariableNode& node) {
    if (!node.parents[0]->requires_grad) return;
    Tensor& grad = node.parents[0]->MutableGrad();
    float* g = grad.data();
    const float gv = node.grad[0];
    const int count = grad.numel();
    for (int i = 0; i < count; ++i) g[i] += gv;
  });
}

Variable Mean(const Variable& x) {
  const int n = x.numel();
  CHECK_GT(n, 0);
  Tensor out = Tensor::Scalar(x.value().Mean());
  return Variable::MakeNode(std::move(out), {x}, [n](VariableNode& node) {
    if (!node.parents[0]->requires_grad) return;
    Tensor& grad = node.parents[0]->MutableGrad();
    float* g = grad.data();
    const float gv = node.grad[0] / static_cast<float>(n);
    const int count = grad.numel();
    for (int i = 0; i < count; ++i) g[i] += gv;
  });
}

Variable MseLoss(const Variable& pred, const Tensor& target) {
  CHECK(pred.value().SameShape(target))
      << "MseLoss: " << ShapeToString(pred.shape()) << " vs "
      << ShapeToString(target.shape());
  const int n = pred.numel();
  CHECK_GT(n, 0);
  double acc = 0.0;
  {
    const float* pv = pred.value().data();
    const float* tv = target.data();
    for (int i = 0; i < n; ++i) {
      const double d = pv[i] - tv[i];
      acc += d * d;
    }
  }
  Tensor out = Tensor::Scalar(static_cast<float>(acc / n));
  return Variable::MakeNode(std::move(out), {pred}, [target, n](VariableNode& node) {
    if (!node.parents[0]->requires_grad) return;
    float* g = node.parents[0]->MutableGrad().data();
    const float* pv = node.parents[0]->value.data();
    const float* tv = target.data();
    const float scale = 2.0f * node.grad[0] / static_cast<float>(n);
    for (int i = 0; i < n; ++i) g[i] += scale * (pv[i] - tv[i]);
  });
}

Variable HuberLoss(const Variable& pred, const Tensor& target, float delta) {
  CHECK(pred.value().SameShape(target));
  CHECK_GT(delta, 0.0f);
  const int n = pred.numel();
  CHECK_GT(n, 0);
  double acc = 0.0;
  {
    const float* pv = pred.value().data();
    const float* tv = target.data();
    for (int i = 0; i < n; ++i) {
      const double r = std::fabs(pv[i] - tv[i]);
      acc += r <= delta ? 0.5 * r * r : delta * (r - 0.5 * delta);
    }
  }
  Tensor out = Tensor::Scalar(static_cast<float>(acc / n));
  return Variable::MakeNode(
      std::move(out), {pred}, [target, delta, n](VariableNode& node) {
        if (!node.parents[0]->requires_grad) return;
        float* g = node.parents[0]->MutableGrad().data();
        const float* pv = node.parents[0]->value.data();
        const float* tv = target.data();
        const float scale = node.grad[0] / static_cast<float>(n);
        for (int i = 0; i < n; ++i) {
          const float r = pv[i] - tv[i];
          const float d = r > delta ? delta : (r < -delta ? -delta : r);
          g[i] += scale * d;
        }
      });
}

Variable MaskedMseLoss(const Variable& pred, const Tensor& target,
                       const Tensor& mask) {
  CHECK(pred.value().SameShape(target))
      << "MaskedMseLoss: " << ShapeToString(pred.shape()) << " vs "
      << ShapeToString(target.shape());
  CHECK(pred.value().SameShape(mask));
  const int n = pred.numel();
  CHECK_GT(n, 0);
  int valid = 0;
  double acc = 0.0;
  {
    const float* pv = pred.value().data();
    const float* tv = target.data();
    const float* mv = mask.data();
    for (int i = 0; i < n; ++i) {
      if (mv[i] == 0.0f) continue;
      ++valid;
      const double d = pv[i] - tv[i];
      acc += d * d;
    }
  }
  CHECK_GT(valid, 0) << "MaskedMseLoss: mask has no valid cells";
  Tensor out = Tensor::Scalar(static_cast<float>(acc / valid));
  return Variable::MakeNode(
      std::move(out), {pred}, [target, mask, n, valid](VariableNode& node) {
        if (!node.parents[0]->requires_grad) return;
        float* g = node.parents[0]->MutableGrad().data();
        const float* pv = node.parents[0]->value.data();
        const float* tv = target.data();
        const float* mv = mask.data();
        const float scale = 2.0f * node.grad[0] / static_cast<float>(valid);
        for (int i = 0; i < n; ++i) {
          if (mv[i] == 0.0f) continue;
          g[i] += scale * (pv[i] - tv[i]);
        }
      });
}

Variable MaskedHuberLoss(const Variable& pred, const Tensor& target,
                         const Tensor& mask, float delta) {
  CHECK(pred.value().SameShape(target));
  CHECK(pred.value().SameShape(mask));
  CHECK_GT(delta, 0.0f);
  const int n = pred.numel();
  CHECK_GT(n, 0);
  int valid = 0;
  double acc = 0.0;
  {
    const float* pv = pred.value().data();
    const float* tv = target.data();
    const float* mv = mask.data();
    for (int i = 0; i < n; ++i) {
      if (mv[i] == 0.0f) continue;
      ++valid;
      const double r = std::fabs(pv[i] - tv[i]);
      acc += r <= delta ? 0.5 * r * r : delta * (r - 0.5 * delta);
    }
  }
  CHECK_GT(valid, 0) << "MaskedHuberLoss: mask has no valid cells";
  Tensor out = Tensor::Scalar(static_cast<float>(acc / valid));
  return Variable::MakeNode(
      std::move(out), {pred},
      [target, mask, delta, n, valid](VariableNode& node) {
        if (!node.parents[0]->requires_grad) return;
        float* g = node.parents[0]->MutableGrad().data();
        const float* pv = node.parents[0]->value.data();
        const float* tv = target.data();
        const float* mv = mask.data();
        const float scale = node.grad[0] / static_cast<float>(valid);
        for (int i = 0; i < n; ++i) {
          if (mv[i] == 0.0f) continue;
          const float r = pv[i] - tv[i];
          const float d = r > delta ? delta : (r < -delta ? -delta : r);
          g[i] += scale * d;
        }
      });
}

Variable HingeSquaredLoss(const Variable& x) {
  const int n = x.numel();
  CHECK_GT(n, 0);
  double acc = 0.0;
  {
    const float* xv = x.value().data();
    for (int i = 0; i < n; ++i) {
      const double v = xv[i] > 0.0f ? xv[i] : 0.0;
      acc += v * v;
    }
  }
  Tensor out = Tensor::Scalar(static_cast<float>(acc / n));
  return Variable::MakeNode(std::move(out), {x}, [n](VariableNode& node) {
    if (!node.parents[0]->requires_grad) return;
    float* g = node.parents[0]->MutableGrad().data();
    const float* xv = node.parents[0]->value.data();
    const float scale = 2.0f * node.grad[0] / static_cast<float>(n);
    for (int i = 0; i < n; ++i) {
      if (xv[i] > 0.0f) g[i] += scale * xv[i];
    }
  });
}

}  // namespace ovs::nn
