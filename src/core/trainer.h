#ifndef OVS_CORE_TRAINER_H_
#define OVS_CORE_TRAINER_H_

#include <vector>

#include "core/aux_loss.h"
#include "core/checkpoint.h"
#include "core/ovs_model.h"
#include "core/run_control.h"
#include "core/train_guard.h"
#include "core/training_data.h"
#include "od/tod_tensor.h"
#include "util/status.h"

namespace ovs::core {

/// Optimization hyperparameters for the paper's two-stage training pipeline
/// plus the test-time TOD recovery (paper §V-E, Fig. 8). Epoch counts are
/// deliberately modest: the networks are tiny and the fast bench setting
/// must finish in seconds; raise them via TrainerConfig for full runs.
struct TrainerConfig {
  int stage1_epochs = 120;    ///< Volume->Speed supervised training
  int stage2_epochs = 120;    ///< TOD->Volume through frozen V2S
  int recovery_epochs = 300;  ///< test-time fit of TOD Generation
  int recovery_restarts = 1;  ///< seed resamples; best-loss result wins
  /// Fit the recovery restarts as ONE stacked [R*N_od x T] graph per epoch
  /// (block-diagonal batched GEMMs through the frozen mappings) instead of
  /// R independent per-restart graphs. Bitwise-identical results either
  /// way — every op in the chain is row-block independent, seeds are drawn
  /// in the same serial order, and each restart keeps its own Adam/guard —
  /// but the stacked graph feeds the kernels R-times-taller matrices, which
  /// is where the register-blocked GEMMs earn their keep. Off = the legacy
  /// restart-parallel path, which runs each restart on its own thread and
  /// is the faster one at 4 threads on the paper cities' shapes.
  bool batch_restarts = true;
  float lr = 1e-3f;           ///< paper Table V
  float recovery_lr = 5e-3f;
  float grad_clip = 1.0f;
  /// Extra direct supervision weight on predicted volume during stage 2.
  /// The paper trains stage 2 on speed loss alone; with a surrogate V2S that
  /// is locally flat in volume that leaves the TOD2V output scale
  /// unidentified, so by default we anchor it with the generated volumes
  /// (still simulator-generated data only — no ground truth leaks).
  float stage2_volume_weight = 0.5f;
  /// Strength of the Gaussian-prior pull on the recovered TOD (toward the
  /// training-distribution mean, in normalized units). The paper's TOD
  /// Generation assumes Gaussian priors (§IV-B); this realizes that prior as
  /// a penalty, damping the unidentified directions that free-flow links
  /// leave in the speed loss. 0 disables.
  float recovery_prior_weight = 0.05f;
  /// Huber delta (in normalized speed units) for the recovery main loss.
  /// Quadratic residuals within delta, linear beyond — so a handful of links
  /// whose slowdown no demand explains (road work, accidents; paper RQ3)
  /// cannot drag the whole TOD. 0 falls back to plain MSE.
  float recovery_huber_delta = 0.1f;
  bool verbose = false;
  /// Exclude non-finite observed-speed cells (dark/failed sensors) from the
  /// recovery loss and the prior's kernel regression. Off = the garbage-in
  /// path: invalid cells are read as 0 m/s (a total-jam signal) and bias the
  /// fit — kept only as the A/B reference for the masked path.
  bool mask_observations = true;
  /// Crash-safe checkpoint/resume (stage1.ckpt / stage2.ckpt /
  /// recovery.restart<k>.ckpt under `checkpoint.dir`). A killed-and-resumed
  /// run produces bitwise-identical results to an uninterrupted one.
  CheckpointOptions checkpoint;
  /// Divergence policy: per-epoch finiteness checks with rollback-retry at
  /// reduced LR, bounded by max_retries (see core/train_guard.h).
  TrainGuardOptions guard;
  /// Optional external deadline/cancel control, polled once per recovery
  /// epoch next to the guard. A non-OK poll aborts RecoverTod with that
  /// status (within one epoch of the poll turning non-OK) and leaves the
  /// model trainable again. Not owned; null = never aborts.
  const RunControl* run_control = nullptr;
};

/// Drives training and recovery for an OvsModel.
class OvsTrainer {
 public:
  OvsTrainer(OvsModel* model, TrainerConfig config);

  /// Stage 1 (paper §V-E step 1): fit Volume->Speed on generated
  /// (volume, speed) pairs. Returns the per-epoch mean loss curve, or an
  /// Internal error when the stage diverges beyond the guard's retry cap.
  [[nodiscard]] StatusOr<std::vector<double>> TrainVolumeSpeed(
      const TrainingData& data);

  /// Stage 2 (step 2): freeze V2S, fit TOD->Volume so that the chained
  /// prediction matches generated speed. Returns the loss curve, or an
  /// Internal error on unrecoverable divergence.
  [[nodiscard]] StatusOr<std::vector<double>> TrainTodVolume(
      const TrainingData& data);

  /// Sets up the recovery prior bookkeeping (training-cell mean and the
  /// per-sample speed/level pairs for the adaptive level estimate) without
  /// training anything. TrainTodVolume calls this implicitly; call it
  /// directly when reusing already-trained mappings.
  void PrimeRecoveryPrior(const TrainingData& data);

  /// Test-time recovery: freeze both mappings, fit TOD Generation to the
  /// observed speed (optionally with auxiliary losses), and return the
  /// recovered TOD tensor. Non-finite observation cells are excluded via
  /// the validity mask when `mask_observations` is set (read as 0 m/s
  /// otherwise). Errors: InvalidArgument when no observation cell is
  /// finite or when recovery_restarts > 1 with `rng == nullptr` (restarts
  /// need it to resample seeds); Internal when every restart diverges
  /// beyond the guard cap; whatever `run_control` reports (e.g.
  /// DeadlineExceeded, Cancelled) when the external control aborts the fit.
  [[nodiscard]] StatusOr<od::TodTensor> RecoverTod(const DMat& observed_speed,
                                                   const AuxLossSet* aux,
                                                   Rng* rng);

  /// Final main-loss value of the last recovery (normalized units).
  [[nodiscard]] double last_recovery_loss() const {
    return last_recovery_loss_;
  }

 private:
  OvsModel* model_;
  TrainerConfig config_;
  Rng dropout_rng_;
  double last_recovery_loss_ = 0.0;
  /// Mean training TOD cell, set by TrainTodVolume; the Gaussian prior mean.
  double prior_cell_mean_ = 0.0;
  /// Per-training-sample (speed tensor, mean TOD cell) kept so recovery can
  /// adapt the prior level to the observed speed (kernel regression over
  /// the generated samples — no ground-truth leakage).
  std::vector<std::pair<DMat, double>> sample_speed_levels_;
};

}  // namespace ovs::core

#endif  // OVS_CORE_TRAINER_H_
