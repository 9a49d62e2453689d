#ifndef OVS_CORE_OVS_CONFIG_H_
#define OVS_CORE_OVS_CONFIG_H_

namespace ovs::core {

/// Architecture hyperparameters of the OVS model (paper Table IV) plus the
/// normalization scales that anchor the sigmoid-bounded outputs to physical
/// units. The network sizes default to the paper's; `lstm_hidden` offers a
/// smaller fast setting because the full 128 is costly on one core.
struct OvsConfig {
  // --- TOD Generation (2 x FC(16), sigmoid) ---
  int seed_dim = 16;       ///< dimension of the Gaussian seed per OD
  int tod_hidden = 16;

  // --- TOD-Volume mapping ---
  int conv_channels = 8;   ///< Route-e conv channels (1x3 kernels)
  int conv_kernel = 3;
  int attention_hidden = 16;  ///< e-alpha FC width
  int link_embed_dim = 8;  ///< learned per-link embedding in the attention
  int lags = 4;            ///< attention look-back window (time frames)

  // --- Volume-Speed mapping (paper: LSTM(128) x2 + FC(32)) ---
  int lstm_hidden = 32;
  int speed_head_hidden = 32;
  /// Learned per-link embedding concatenated with the volume input at every
  /// LSTM step. The paper shares the LSTM across links with no identity
  /// signal; on heterogeneous links (signal offsets, irregular lengths) the
  /// shared net cannot express per-link congestion response without it.
  /// 0 disables (paper-faithful).
  int v2s_link_embed_dim = 8;

  // --- Normalization scales (set from training data) ---
  float tod_scale = 100.0f;    ///< max trip count a TOD cell can take
  float volume_norm = 200.0f;  ///< volume divisor into the LSTM
  float speed_scale = 14.0f;   ///< max speed in m/s (sigmoid ceiling)

  float dropout = 0.0f;  ///< paper uses 0.3 during the mapping training
};

}  // namespace ovs::core

#endif  // OVS_CORE_OVS_CONFIG_H_
