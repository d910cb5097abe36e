"""No function in the package recurses, except the formula parser.

Walks ``src/costmon`` with ``ast`` and builds each module's call graph:
a call by plain name goes to the nearest enclosing nested function of
that name, else to the module-level function; ``self.name(...)`` goes to
the method of the enclosing class.  Any function on a cycle of that graph
(it calls itself, directly or through others) must be on ``ALLOWED``, and
every entry of ``ALLOWED`` must still recurse, so the list shrinks as
recursion is removed.  Only the recursive-descent parser is left, and
``MAX_PAREN_DEPTH`` bounds its depth.  Walks over formula trees and
graphs, progression among them, use explicit stacks, so that no
recursion depth grows with the size of the input.
"""

import ast
import os

import costmon

PACKAGE = os.path.dirname(os.path.abspath(costmon.__file__))

# module -> qualified names of the functions allowed to recurse
ALLOWED = {
    "formulas": {
        # recursive descent; MAX_PAREN_DEPTH bounds its depth
        "_Parser.infix_expr", "_Parser.unary_expr", "_Parser.primary",
    },
}


def _functions(tree):
    """``(qualname, node, enclosing qualnames, class qualname)`` per def."""
    out = []
    todo = [(tree, "", (), None)]
    while todo:
        node, prefix, scopes, cls = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                out.append((name, child, scopes, cls))
                todo.append((child, name + ".", scopes + (name,), None))
            elif isinstance(child, ast.ClassDef):
                todo.append((child, prefix + child.name + ".", scopes,
                             prefix + child.name))
            else:
                todo.append((child, prefix, scopes, cls))
    return out


def _call_graph(tree):
    funcs = _functions(tree)
    names = {name for name, _, _, _ in funcs}
    edges = {}
    for name, node, scopes, cls in funcs:
        targets = set()
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            fn = call.func
            if isinstance(fn, ast.Name):
                inner = [s + "." + fn.id for s in scopes + (name,)]
                found = [q for q in reversed(inner) if q in names]
                if found:
                    targets.add(found[0])
                elif fn.id in names:
                    targets.add(fn.id)
            elif (isinstance(fn, ast.Attribute) and cls is not None
                  and isinstance(fn.value, ast.Name) and fn.value.id == "self"
                  and cls + "." + fn.attr in names):
                targets.add(cls + "." + fn.attr)
        edges[name] = targets
    return edges


def _recursive(edges):
    """Functions on a cycle of ``edges``: those that reach themselves."""
    out = set()
    for start in edges:
        seen, stack = set(), list(edges[start])
        while stack:
            f = stack.pop()
            if f == start:
                out.add(start)
                break
            if f not in seen:
                seen.add(f)
                stack.extend(edges.get(f, ()))
    return out


def _recursion_by_module():
    out = {}
    for fname in sorted(os.listdir(PACKAGE)):
        if fname.endswith(".py"):
            with open(os.path.join(PACKAGE, fname)) as fh:
                tree = ast.parse(fh.read(), fname)
            found = _recursive(_call_graph(tree))
            if found:
                out[fname[:-3]] = found
    return out


def test_guard_sees_direct_nested_and_mutual_recursion():
    src = '''
def direct(n):
    return direct(n - 1)

def outer(x):
    def walk(g):
        walk(g)
    walk(x)

def ping(n):
    return pong(n)

def pong(n):
    return ping(n)

class C:
    def method(self):
        self.method()

def loop(xs):
    return [len(x) for x in xs]
'''
    assert _recursive(_call_graph(ast.parse(src))) == {
        "direct", "outer.walk", "ping", "pong", "C.method"}


def test_no_recursion_outside_the_allow_list():
    assert _recursion_by_module() == ALLOWED
