"""Miniature Table V: train TinyYOLO and an RCNN baseline, compare.

A scaled-down version of the paper's model comparison — fewer training
images and epochs so it runs in a couple of minutes — showing the
one-stage vs two-stage gap at the strict IoU=0.9 protocol and the
latency gap that motivated the paper's model choice.

Run:  python examples/train_and_compare.py
"""

import time

from repro.datagen import build_corpus, split_corpus
from repro.vision import (
    DetectionEvaluator,
    TinyYolo,
    YoloConfig,
    YoloTrainer,
    build_detection_dataset,
)
from repro.vision.rcnn import RcnnConfig, RcnnDetector


def evaluate(detector, dataset):
    evaluator = DetectionEvaluator(iou_threshold=0.9)
    start = time.perf_counter()
    for i in range(len(dataset)):
        dets = detector.detect_screen(dataset.screen_images[i],
                                      conf_threshold=0.4)
        evaluator.add_image(dets, dataset.screen_labels[i])
    latency = (time.perf_counter() - start) * 1000 / len(dataset)
    return evaluator.result(), latency


def main() -> None:
    print("Building corpus and splits...")
    corpus = build_corpus(seed=0)
    splits = split_corpus(corpus)
    train = build_detection_dataset(splits["train"][:160],
                                    keep_screen_images=True)
    test = build_detection_dataset(splits["test"][:60],
                                   keep_screen_images=True)
    print(f"train={len(train)} test={len(test)}")

    print("\nTraining TinyYOLO (30 epochs)...")
    yolo = TinyYolo(YoloConfig(), seed=0)
    t0 = time.time()
    YoloTrainer(yolo, lr=2e-3, batch_size=16).fit(train, epochs=30)
    print(f"  trained in {time.time() - t0:.0f}s")

    print("Training Mask RCNN+ResNet50 head...")
    rcnn = RcnnDetector("ResNet50", mask_refinement=True,
                        config=RcnnConfig(epochs=40))
    t0 = time.time()
    rcnn.fit(train)
    print(f"  trained in {time.time() - t0:.0f}s")

    print("\n== Results (IoU 0.9) ==")
    header = f"{'model':<24} {'P':>6} {'R':>6} {'F1':>6} {'ms/frame':>9}"
    print(header)
    print("-" * len(header))
    for name, det in (("TinyYOLO (ours)", yolo),
                      ("Mask RCNN+ResNet50", rcnn)):
        result, latency = evaluate(det, test)
        p, r, f = result.row("All")
        print(f"{name:<24} {p:>6.3f} {r:>6.3f} {f:>6.3f} {latency:>9.0f}")
    print("\nNote: at this miniature training budget the sample-efficient "
          "classical RCNN can out-score the under-trained CNN; at the full "
          "budget (pytest benchmarks/ bench_table5) the one-stage detector "
          "wins on accuracy AND speed, as in the paper's Table V.  The "
          "latency gap is visible at any scale.")


if __name__ == "__main__":
    main()
