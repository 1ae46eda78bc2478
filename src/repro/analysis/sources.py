"""Source indexing and call resolution for the invariant-lint rules.

The analyzer never imports the code it checks — everything is derived from
the AST of the source tree.  This module builds the shared index the rules
query: every module's functions, classes, methods and import aliases, plus
a best-effort call resolver.

Resolution is strict first, then falls back to a unique name:

* **strict** — a plain name call resolved in its own module or through an
  explicit import, a ``self.method()`` call resolved on the enclosing
  class, or a ``ClassName.method()`` call resolved through an imported
  class.
* **unique-name fallback** — an attribute call on an unresolvable receiver
  (``engine.enqueue_profile_changes(...)``) resolves when exactly one
  function in the whole index bears that name.  The lock rule needs it:
  a missed edge hides a real deadlock, while the small false-edge risk
  surfaces as a suppressible finding, not a silent pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

#: Attribute names too generic for the unique-name fallback: resolving
#: ``mapping.get(...)`` to some class's ``get`` method would invent call
#: edges out of thin air.
_AMBIGUOUS_METHOD_NAMES = frozenset({
    "get", "set", "add", "pop", "update", "items", "keys", "values",
    "append", "extend", "insert", "remove", "clear", "copy", "sort",
    "join", "split", "strip", "read", "write", "open", "close", "run",
    "start", "stop", "wait", "send", "put", "next", "format", "encode",
    "decode", "count", "index",
})


@dataclass
class SourceFile:
    """One parsed source file plus the bookkeeping rules need."""

    path: Path
    module: str
    text: str
    tree: ast.Module

    @classmethod
    def parse(cls, path: Path, module: str) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        return cls(path=path, module=module, text=text, tree=tree)


@dataclass
class FunctionInfo:
    """A function or method, addressable by dotted qualname."""

    qualname: str                 # e.g. repro.core.engine.KNNEngine.recover
    module: str
    name: str
    class_name: Optional[str]
    node: ast.AST                 # FunctionDef | AsyncFunctionDef
    source: SourceFile


@dataclass
class ClassInfo:
    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


def module_name_for(path: Path, src_root: Path) -> str:
    """``src_root/repro/core/engine.py`` → ``repro.core.engine``."""
    relative = path.relative_to(src_root).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def discover_sources(src_root: Path,
                     package: str = "") -> List[SourceFile]:
    """Parse every ``.py`` file under ``src_root`` into a SourceFile list."""
    src_root = Path(src_root)
    sources = []
    for path in sorted(src_root.rglob("*.py")):
        module = module_name_for(path, src_root)
        if package and not (module == package
                            or module.startswith(package + ".")):
            continue
        sources.append(SourceFile.parse(path, module))
    return sources


def dotted_chain(node: ast.AST) -> Optional[str]:
    """``np.random.default_rng`` as a dotted string, or None if not a chain."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class CodeIndex:
    """Cross-module view of every function, class and import alias."""

    def __init__(self) -> None:
        self.sources: List[SourceFile] = []
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: simple name → every function/method bearing it
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        #: module → alias → dotted target ("np" → "numpy",
        #: "KNNEngine" → "repro.core.engine.KNNEngine")
        self.imports: Dict[str, Dict[str, str]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, sources: Iterable[SourceFile]) -> "CodeIndex":
        index = cls()
        for source in sources:
            index._add_source(source)
        return index

    def _add_source(self, source: SourceFile) -> None:
        self.sources.append(source)
        module = source.module
        imports = self.imports.setdefault(module, {})
        for node in source.tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                self._record_import(node, imports)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._record_function(source, node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                self._record_class(source, node)

    @staticmethod
    def _record_import(node: ast.AST, imports: Dict[str, str]) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports[name] = target
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                return  # relative imports do not occur in this tree
            for alias in node.names:
                name = alias.asname or alias.name
                imports[name] = f"{node.module}.{alias.name}"

    def _record_function(self, source: SourceFile, node: ast.AST,
                         class_name: Optional[str]) -> FunctionInfo:
        if class_name:
            qualname = f"{source.module}.{class_name}.{node.name}"
        else:
            qualname = f"{source.module}.{node.name}"
        info = FunctionInfo(qualname=qualname, module=source.module,
                            name=node.name, class_name=class_name,
                            node=node, source=source)
        self.functions[qualname] = info
        self.by_name.setdefault(node.name, []).append(info)
        return info

    def _record_class(self, source: SourceFile, node: ast.ClassDef) -> None:
        qualname = f"{source.module}.{node.name}"
        info = ClassInfo(qualname=qualname, module=source.module,
                         name=node.name, node=node)
        self.classes[qualname] = info
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[item.name] = self._record_function(
                    source, item, class_name=node.name)

    # -- lookup --------------------------------------------------------------

    def canonical_chain(self, module: str, chain: str) -> str:
        """Rewrite a dotted chain's leading alias through the import map.

        ``np.random.default_rng`` → ``numpy.random.default_rng`` when the
        module did ``import numpy as np``.  Chains whose root is not an
        import alias come back unchanged.
        """
        head, sep, rest = chain.partition(".")
        target = self.imports.get(module, {}).get(head)
        if target is None:
            return chain
        return target + (("." + rest) if sep else "")

    # -- call resolution -----------------------------------------------------

    def resolve_call(self, call: ast.Call,
                     caller: FunctionInfo) -> Optional[FunctionInfo]:
        """Resolve a call expression to a function in the index, or None."""
        func = call.func
        module = caller.module
        if isinstance(func, ast.Name):
            local = self.functions.get(f"{module}.{func.id}")
            if local is not None:
                return local
            target = self.imports.get(module, {}).get(func.id)
            if target is not None:
                hit = self.functions.get(target)
                if hit is not None:
                    return hit
                # ``from x import Cls`` then ``Cls(...)``: constructor
                klass = self.classes.get(target)
                if klass is not None:
                    return klass.methods.get("__init__")
            return None
        if not isinstance(func, ast.Attribute):
            return None
        attr = func.attr
        receiver = func.value
        if isinstance(receiver, ast.Name):
            if receiver.id == "self" and caller.class_name:
                klass = self.classes.get(f"{module}.{caller.class_name}")
                if klass is not None and attr in klass.methods:
                    return klass.methods[attr]
            elif receiver.id == "cls" and caller.class_name:
                klass = self.classes.get(f"{module}.{caller.class_name}")
                if klass is not None and attr in klass.methods:
                    return klass.methods[attr]
            else:
                target = self.imports.get(module, {}).get(receiver.id)
                if target is not None:
                    # imported module (``checkpoint.save_checkpoint``) or
                    # imported class (``KNNEngine.recover``)
                    hit = self.functions.get(f"{target}.{attr}")
                    if hit is not None:
                        return hit
                    klass = self.classes.get(target)
                    if klass is not None:
                        return klass.methods.get(attr)
                local_class = self.classes.get(f"{module}.{receiver.id}")
                if local_class is not None:
                    return local_class.methods.get(attr)
        if attr not in _AMBIGUOUS_METHOD_NAMES:
            candidates = self.by_name.get(attr, [])
            if len(candidates) == 1:
                return candidates[0]
        return None

    def calls_of(self, info: FunctionInfo
                 ) -> List[Tuple[ast.Call, Optional[FunctionInfo]]]:
        """Every call in ``info``'s body with its resolution (or None)."""
        return [(node, self.resolve_call(node, info))
                for node in ast.walk(info.node) if isinstance(node, ast.Call)]


def root_name(node: ast.AST) -> Optional[str]:
    """The leftmost Name of an attribute/subscript chain (``a.b[c].d`` → a)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None
