"""Every settable value of the library, pinned.

A settable value is a defaulted parameter of a function, method or lambda
under `src/unittab`, a field of `ModelConfig`, `TrainConfig`,
`PollutionConfig` or `MultitypeConfig`, or a key of the CLI's `data`
config section (`cli._DATA_KEYS`). Each one multiplies the configurations
that tests and benchmarks may have to cover, so a new one shows up here as
an edit to `SETTABLE`; a value with one use outside tests is a constant.
"""

import ast
import dataclasses
from pathlib import Path

import unittab
from unittab import cli
from unittab.data import MultitypeConfig, PollutionConfig
from unittab.model import ModelConfig
from unittab.training import TrainConfig

SETTABLE = [
    "ModelConfig.d",
    "ModelConfig.dropout",
    "ModelConfig.field_heads",
    "ModelConfig.field_layers",
    "ModelConfig.freq_count",
    "ModelConfig.m",
    "ModelConfig.n_row_types",
    "ModelConfig.numeric_input",
    "ModelConfig.numeric_target",
    "ModelConfig.seq_heads",
    "ModelConfig.seq_layers",
    "ModelConfig.t_max",
    "ModelConfig.task_head",
    "MultitypeConfig.churn_rate",
    "MultitypeConfig.mean_len",
    "MultitypeConfig.n_entities",
    "MultitypeConfig.q_bins",
    "PollutionConfig.coupling",
    "PollutionConfig.n_entities",
    "PollutionConfig.noise",
    "PollutionConfig.q_bins",
    "PollutionConfig.rows_per_entity",
    "TrainConfig.batch_size",
    "TrainConfig.betas",
    "TrainConfig.checkpoint_every",
    "TrainConfig.epochs",
    "TrainConfig.epsilon",
    "TrainConfig.lr",
    "TrainConfig.max_steps",
    "TrainConfig.neighborhood_radius",
    "TrainConfig.p_f",
    "TrainConfig.p_r",
    "TrainConfig.seed",
    "TrainConfig.weight_decay",
    "cli._DATA_KEYS['checkpoint']",
    "cli._DATA_KEYS['dir']",
    "cli._DATA_KEYS['test_fraction']",
    "cli.main(argv)",
    "data.export_dataset(extra)",
    "data.export_dataset(labels)",
    "data.export_dataset(row_targets)",
    "data.write_manifest(extra)",
    "embedding.split_timestamp(with_hour)",
    "model.Model.__init__(seed)",
    "model.Model._param(one)",
    "model.Model._param(zero)",
    "model.Model.ensure_task_head(seed)",
    "model.Model.field_forward(rng)",
    "model.Model.field_forward(training)",
    "model.Model.finetune_forward(rng)",
    "model.Model.finetune_forward(training)",
    "model.Model.pretrain_forward(rng)",
    "model.Model.pretrain_forward(training)",
    "model.Model.sequence_forward(pad_mask)",
    "model.Model.sequence_forward(rng)",
    "model.Model.sequence_forward(training)",
    "model.Model.sequence_forward(with_cls)",
    "schema.fit_schema(q)",
    "tensor.Tensor.__init__(requires_grad)",
    "tensor.Tensor.backward(grad)",
    "tensor.concat(axis)",
    "tensor.grad_check(h)",
    "tensor.lane(size)",
    "tensor.softmax(axis)",
    "tensor.sum_(axis)",
    "tensor.transpose(axes)",
    "training.AdamW.__init__(betas)",
    "training.AdamW.__init__(lr)",
    "training.AdamW.__init__(no_decay)",
    "training.AdamW.__init__(weight_decay)",
    "training._train_loop(checkpoint_path)",
    "training._train_loop(metrics_path)",
    "training.evaluate(batch_size)",
    "training.finetune(metrics_path)",
    "training.predict(batch_size)",
    "training.pretrain(checkpoint_path)",
    "training.pretrain(metrics_path)",
    "verify.check_model(seed)",
    "verify.check_primitives(inject_bug)",
    "verify.check_primitives(ops)",
    "verify.check_primitives(seed)",
    "verify.check_primitives(trials)",
    "verify.run_suite(inject_bug)",
    "verify.run_suite(ops)",
    "verify.run_suite(seed)",
    "verify.run_suite(trials)",
    "verify.toy_setup(seed)",
    "verify.toy_setup.row(extra)",
]


class _Defaults(ast.NodeVisitor):
    """`module.qualname(param)` for every defaulted parameter."""

    def __init__(self, module):
        self.scope = [module]
        self.found = []

    def _function(self, node, name):
        a = node.args
        positional = a.posonlyargs + a.args
        names = [p.arg for p in positional[len(positional) - len(a.defaults):]]
        names += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        qualname = ".".join([*self.scope, name])
        self.found += [f"{qualname}({n})" for n in names]
        self.scope.append(name)
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        self._function(node, node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._function(node, "<lambda>")

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()


def settable_values():
    found = []
    for path in sorted(Path(unittab.__file__).parent.glob("*.py")):
        walker = _Defaults(path.stem)
        walker.visit(ast.parse(path.read_text()))
        found += walker.found
    found += [f"{cls.__name__}.{f.name}" for cls in (ModelConfig, TrainConfig, PollutionConfig,
                                                     MultitypeConfig)
              for f in dataclasses.fields(cls)]
    found += [f"cli._DATA_KEYS[{k!r}]" for k in cli._DATA_KEYS]
    return sorted(found)


def test_settable_values_are_pinned():
    assert settable_values() == SETTABLE
