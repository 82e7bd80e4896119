"""How the initialization quantile trades accuracy for size
===========================================================

The sigma2 fit starts from a quantile of the eigenvalue list.  Higher
quantiles raise the fitted noise floor, push the bulk edge up, keep fewer
spike directions, and therefore compress harder.  This sweep reruns the
whole compression loop once per quantile, every run from the same
warmed-up network and its known accuracy.
"""
from rmtkd import (CompressionPlan, DistillConfig, SplitSpec, init_network,
                   make_rng, normal, planted_subspace_task, quantile_ablation,
                   split, train_until)

ds, _ = planted_subspace_task(input_dim=32, intrinsic_dim=8, num_classes=10,
                              n_samples=5000, noise_sigma=0.3, seed=0)
parts = split(ds, SplitSpec(train_fraction=0.8, calibration_fraction=0.1,
                            seed=0))

init_rng = make_rng(1)
net = init_network([64], ds.dim, ds.num_classes,
                   lambda shape: normal(init_rng, shape))
cfg = DistillConfig(max_epochs=40, accuracy_threshold=0.95)
net, _, base_acc = train_until(net, (parts[0], parts[1]), cfg,
                               rng=make_rng(2))
print(f"shared baseline accuracy: {base_acc:.4f}\n")

grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
plan = CompressionPlan(layer_order=[0])
rows = quantile_ablation(net, base_acc, parts, grid, plan, cfg, seed=3)

print("quantile  reduction  final_acc")
for qv, acc, red in rows:
    bar = "#" * int(red * 40)
    print(f"   {qv:.1f}     {red:8.3f}   {acc:.4f}  {bar}")
print("\nreduction grows with the quantile; past the knee the projection "
      "starts\ncutting signal directions and accuracy pays for it.")
