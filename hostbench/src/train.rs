//! `train-accuracy`: `core::experiments::accuracy_study` (baseline,
//! FuSe-Full and FuSe-Half study CNNs trained on the synthetic
//! oriented-texture task). The traced run adds a probe beside the study:
//! it generates the study's datasets as the study does, and times
//! `Layer::forward`/`backward` per layer type at the shapes
//! `core::cnn::build_cnn` uses and one `RmsProp::step`, scaled by the
//! samples and steps trained. The study time the scaled probe does not
//! explain is the stage's unattributed share.

use crate::spans::{fnv_words, Checks, Samples, Tracer};
use crate::{Pass, Size, Stage};
use fuseconv_core::cnn::{build_cnn, CnnConfig};
use fuseconv_core::experiments::{accuracy_study, AccuracyConfig};
use fuseconv_core::Variant;
use fuseconv_nn::FuSeVariant;
use fuseconv_tensor::Tensor;
use fuseconv_train::dataset::OrientedTextures;
use fuseconv_train::layers::{
    ActivationLayer, AvgPoolLayer, ChannelNormLayer, Conv2dLayer, DenseLayer, DepthwiseLayer,
    FuseLayer, GlobalPoolLayer, PointwiseLayer,
};
use fuseconv_train::loss::cross_entropy;
use fuseconv_train::optim::RmsProp;
use fuseconv_train::{Layer, Param};
use std::time::Instant;

const VARIANTS: [Variant; 3] = [Variant::Baseline, Variant::FuseFull, Variant::FuseHalf];
/// Mini-batch size `accuracy_study` trains with.
const BATCH: usize = 16;

pub struct TrainStage {
    cfg: AccuracyConfig,
}

/// The layers `build_cnn` stacks for `variant`, built one by one so each
/// can be timed; `probe_matches_build_cnn` checks the two agree.
fn probe_layers(variant: Variant, cfg: &CnnConfig) -> Vec<Box<dyn Layer>> {
    let s = cfg.seed;
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2dLayer::new(
            cfg.in_channels,
            cfg.stem_channels,
            3,
            1,
            s.wrapping_add(1),
        )),
        Box::new(ChannelNormLayer::new(cfg.stem_channels)),
        Box::new(ActivationLayer::relu()),
    ];
    let separable = |layers: &mut Vec<Box<dyn Layer>>, in_c: usize, out_c: usize, seed: u64| {
        let (spatial, mid_c): (Box<dyn Layer>, usize) = match variant.fuse_variant() {
            None => (
                Box::new(DepthwiseLayer::new(in_c, cfg.k, cfg.k, seed)),
                in_c,
            ),
            Some(v @ FuSeVariant::Full) => {
                (Box::new(FuseLayer::new(v, in_c, cfg.k, seed)), 2 * in_c)
            }
            Some(v @ FuSeVariant::Half) => (Box::new(FuseLayer::new(v, in_c, cfg.k, seed)), in_c),
        };
        layers.push(spatial);
        layers.push(Box::new(PointwiseLayer::new(mid_c, out_c, seed ^ 0xbeef)));
        layers.push(Box::new(ChannelNormLayer::new(out_c)));
    };
    separable(
        &mut layers,
        cfg.stem_channels,
        cfg.mid_channels,
        s.wrapping_add(2),
    );
    layers.push(Box::new(ActivationLayer::relu()));
    layers.push(Box::new(AvgPoolLayer::new(2)));
    separable(
        &mut layers,
        cfg.mid_channels,
        cfg.mid_channels * 2,
        s.wrapping_add(3),
    );
    layers.push(Box::new(ActivationLayer::relu()));
    layers.push(Box::new(GlobalPoolLayer::new()));
    layers.push(Box::new(DenseLayer::new(
        cfg.mid_channels * 2,
        cfg.classes,
        s.wrapping_add(4),
    )));
    layers
}

fn span_of(layer: &dyn Layer) -> &'static str {
    match layer.name() {
        "conv2d" => "train.conv2d",
        "depthwise" => "train.depthwise",
        "fuse" => "train.fuse",
        "pointwise" => "train.pointwise",
        "dense" => "train.dense",
        _ => "train.other",
    }
}

impl TrainStage {
    pub fn setup(size: Size, seed: u64) -> Self {
        // The light pass trains one epoch: a throughput sample, too short
        // to converge, so the accuracy floor holds only for the study's
        // default configuration.
        let cfg = AccuracyConfig {
            seed,
            epochs: match size {
                Size::Heavy => AccuracyConfig::default().epochs,
                Size::Light => 1,
            },
            ..AccuracyConfig::default()
        };
        TrainStage { cfg }
    }

    fn cnn_config(&self) -> CnnConfig {
        CnnConfig {
            classes: self.cfg.classes,
            seed: self.cfg.seed,
            ..CnnConfig::default()
        }
    }

    /// Generates the study's datasets, then times forward, loss, backward
    /// and one optimizer step over one mini-batch per variant and scales
    /// them to the study's sample and step counts. Returns the study
    /// seconds the scaled probe explains.
    fn layer_probe(&self, tr: &mut Tracer, checks: &mut Checks, layer: &mut Samples) -> f64 {
        let cfg = &self.cfg;
        let mark = tr.mark();
        let gen = OrientedTextures::new(cfg.image_size, cfg.classes);
        let (train, test) = tr.time("train.dataset", || {
            (
                gen.generate(cfg.train_samples, cfg.seed),
                gen.generate(cfg.test_samples, cfg.seed.wrapping_add(1)),
            )
        });
        let dataset_s = tr.secs_since(mark, "train.dataset");
        layer.push("train.dataset_s", "s", dataset_s);
        checks.check(train.len() >= BATCH && !test.is_empty(), || {
            "dataset smaller than one mini-batch".into()
        });
        let batch = &train[..BATCH.min(train.len())];

        let cnn = self.cnn_config();
        let per_variant_samples = (cfg.epochs * cfg.train_samples) as f64;
        let per_variant_steps = (cfg.epochs * cfg.train_samples.div_ceil(BATCH)) as f64;
        // The reported layer types, then the rest of the probe's spans.
        let names = [
            "train.conv2d",
            "train.depthwise",
            "train.fuse",
            "train.pointwise",
            "train.dense",
            "train.optim",
            "train.other",
            "train.loss",
        ];
        let mut scaled = [0.0f64; 8];
        for variant in VARIANTS {
            let mut layers = probe_layers(variant, &cnn);
            self.probe_matches_build_cnn(variant, &mut layers, &batch[0].0, checks);
            let mark = tr.mark();
            let probe = tr.open("train.probe");
            for (x, label) in batch {
                let mut cur = x.clone();
                for l in layers.iter_mut() {
                    let out = tr.time(span_of(l.as_ref()), || l.forward(&cur));
                    let Some(out) = checks.ok("forward", out) else {
                        return 0.0;
                    };
                    cur = out;
                }
                let loss = tr.time("train.loss", || cross_entropy(&cur, *label));
                let Some((_, mut grad)) = checks.ok("cross_entropy", loss) else {
                    return 0.0;
                };
                for l in layers.iter_mut().rev() {
                    let out = tr.time(span_of(l.as_ref()), || l.backward(&grad));
                    let Some(out) = checks.ok("backward", out) else {
                        return 0.0;
                    };
                    grad = out;
                }
            }
            let mut opt = RmsProp::new(0.012);
            let mut params: Vec<&mut Param> =
                layers.iter_mut().flat_map(|l| l.params_mut()).collect();
            // The first step allocates the optimizer state; time a later one.
            opt.step(&mut params);
            tr.time("train.optim", || opt.step(&mut params));
            tr.close(probe);
            let n = batch.len() as f64;
            for (acc, name) in scaled.iter_mut().zip(names) {
                let scale = if name == "train.optim" {
                    per_variant_steps
                } else {
                    per_variant_samples / n
                };
                *acc += tr.secs_since(mark, name) * scale;
            }
        }
        for (name, secs) in names.into_iter().zip(scaled).take(6) {
            layer.push(format!("{name}_s"), "s", secs);
        }
        dataset_s + scaled.iter().sum::<f64>()
    }

    /// The probe's layer stack must be `build_cnn`'s: same parameter
    /// count and bit-identical output on a training sample.
    fn probe_matches_build_cnn(
        &self,
        variant: Variant,
        layers: &mut [Box<dyn Layer>],
        x: &Tensor,
        checks: &mut Checks,
    ) {
        let mut net = build_cnn(variant, &self.cnn_config());
        let probe_params: usize = layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .map(|p| p.value.shape().volume())
            .sum();
        let mut cur = x.clone();
        for l in layers.iter_mut() {
            match l.forward(&cur) {
                Ok(out) => cur = out,
                Err(e) => return checks.check(false, || format!("probe forward: {e}")),
            }
        }
        let same = net.forward(x).is_ok_and(|y| y.as_slice() == cur.as_slice())
            && net.num_params() == probe_params;
        checks.check(same, || {
            format!("{variant} probe layers differ from build_cnn")
        });
    }
}

impl Stage for TrainStage {
    fn name(&self) -> &'static str {
        "train-accuracy"
    }

    fn pass(
        &mut self,
        tr: &mut Tracer,
        checks: &mut Checks,
        e2e: &mut Samples,
        layer: &mut Samples,
    ) -> Pass {
        let t0 = Instant::now();
        let root = tr.open("train");
        let rows = tr.time("train.accuracy_study", || accuracy_study(&self.cfg));
        tr.close(root);
        let secs = t0.elapsed().as_secs_f64();

        let rows = checks.ok("accuracy_study", rows).unwrap_or_default();
        checks.check(rows.len() == VARIANTS.len(), || {
            "accuracy study rows missing".into()
        });
        let chance = 1.0 / self.cfg.classes as f64;
        let converged = self.cfg.epochs == AccuracyConfig::default().epochs;
        for row in rows.iter().filter(|_| converged) {
            checks.check(row.accuracy > chance + 0.2, || {
                format!(
                    "{} accuracy {:.3} is not above chance + 0.2",
                    row.variant, row.accuracy
                )
            });
        }
        let fp = fnv_words(rows.iter().map(|r| r.accuracy.to_bits()));

        let samples = (VARIANTS.len() * self.cfg.epochs * self.cfg.train_samples) as f64;
        let mut unattributed = None;
        if tr.on() {
            layer.push("train.samples", "count", samples);
            let explained = self.layer_probe(tr, checks, layer);
            unattributed = Some(1.0 - explained / secs);
        } else {
            e2e.push_rate("train_samples_per_s", "samples/s", samples, secs);
        }
        Pass {
            secs,
            fingerprint: fp,
            unattributed,
        }
    }
}
